// Package core orchestrates the paper's measurement pipeline as a
// record-once/replay-many engine: compile a benchmark, run one instrumented
// VM pass over its input suite that produces both the profile and an
// in-memory branch trace, then score every requested prediction scheme by
// replaying that trace in parallel. Schemes come from the predict.Scheme
// registry. The Forward Semantic is scored from the same trace: the
// transform's layout fixes the direction of every branch
// (fs.Result.Predictor), so its transformed binary is built but only run
// for Config.ICache. With Config.Corpus set, the recording pass itself is
// served from the disk-backed trace corpus (internal/corpus) whenever an
// entry for the exact (program, input-suite) pair exists, so a warm
// evaluation without Config.ICache executes no VM at all. The root
// branchcost package re-exports this API.
package core

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"branchcost/internal/attr"
	_ "branchcost/internal/btb" // registers the sbtb/cbtb/btb2l schemes
	"branchcost/internal/corpus"
	"branchcost/internal/fs"
	_ "branchcost/internal/history" // registers the history-based schemes
	"branchcost/internal/icache"
	"branchcost/internal/isa"
	"branchcost/internal/pipeline"
	"branchcost/internal/predict"
	"branchcost/internal/profile"
	"branchcost/internal/telemetry"
	"branchcost/internal/tracefile"
	"branchcost/internal/vm"
	"branchcost/internal/workloads"
)

// Config selects which registered schemes to score and how (SchemeConfigs),
// the slot depth used when materializing the Forward Semantic binary, and
// the evaluation's side measurements and limits. The zero value is the
// paper's configuration.
type Config struct {
	// EvalSlots is the k+ℓ of the FS binary the transform materializes
	// (Eval.FSResult, its code growth, the ICache measurement); nil means
	// the paper's 2. The scored accuracy is independent of it: the layout's
	// branch directions do not depend on the slot count.
	EvalSlots *int

	// FlushEvery, when positive, resets the predictors every N branches
	// (the context-switch ablation of the paper's §3 discussion). Stateless
	// schemes are unaffected — their Reset is a no-op.
	FlushEvery int64

	// Schemes lists the registered predict.Scheme names to score, in report
	// order; nil means DefaultSchemes (the paper's three).
	Schemes []string

	// Corpus, when non-nil, is the disk-backed trace store Evaluate consults
	// before executing any VM pass: a hit supplies the recorded trace and
	// profile from disk, a miss records live and stores the result for every
	// later run. Only consulted when the profiling and evaluation suites are
	// identical (the paper's methodology), since an entry captures exactly
	// that shared pass.
	Corpus *corpus.Store

	// Telemetry, when non-nil, receives counters, gauges and spans for every
	// layer the evaluation touches (VM, trace codec, corpus, per-scheme
	// hit/miss totals). A set already present on the evaluation context takes
	// precedence; this field exists for callers without a context in hand.
	Telemetry *telemetry.Set

	// ICache, when non-nil, measures instruction-cache behaviour of the
	// Forward Semantic code expansion with that geometry: one pass over the
	// original binary and one over the transformed binary (through the
	// slot-substituting fetch model), reported as Eval.ICache. Costs two
	// extra VM runs per input; nil skips the measurement entirely.
	ICache *icache.Geometry

	// MaxVMSteps, when positive, bounds every VM run of the evaluation
	// (profiling, recording, and the ICache measurement) to that many
	// dynamic instructions — the step-budget watchdog that converts a
	// runaway workload into a located trap instead of a hung suite. Zero
	// means the VM default (1<<34).
	MaxVMSteps int64

	// SchemeConfigs carries per-scheme configuration overrides (typically
	// predict.FlagConfigs from the CLI flags) layered field by field over
	// the registry defaults; nil scores every scheme at its defaults, the
	// paper's configuration for the paper's schemes. EvaluateContext
	// rejects a set predict.ConfigSet.Validate rejects.
	SchemeConfigs predict.ConfigSet

	// Attribution, when non-nil, attaches a per-scheme attr.Recorder to every
	// evaluator (Evaluator.Obs): the evaluation then carries per-site and
	// per-window mispredict attribution in Eval.Attr, cross-checked against
	// each scheme's aggregate Stats. Nil keeps the observer seam disabled
	// (one nil check per scored event).
	Attribution *attr.Options
}

// Ptr returns a pointer to v, for the Config fields with pointer-or-nil
// default semantics: core.Config{EvalSlots: core.Ptr(0)}.
func Ptr[T any](v T) *T { return &v }

// DefaultSchemes returns the paper's three schemes in its tables' order.
func DefaultSchemes() []string { return []string{"sbtb", "cbtb", "fs"} }

func (c Config) withDefaults() Config {
	if c.EvalSlots == nil {
		c.EvalSlots = Ptr(2) // the paper's k+ℓ
	}
	return c
}

// Configs returns the per-scheme configuration set the registry's
// constructors consume: Config.SchemeConfigs.
func (c Config) Configs() predict.ConfigSet { return c.SchemeConfigs }

// SchemeResult is one scheme's score on one benchmark.
type SchemeResult struct {
	Stats predict.Stats

	// Extra holds scheme-internal capacity metrics (buffer inserts,
	// evictions, occupancy) for predictors implementing predict.MetricSource;
	// nil otherwise.
	Extra map[string]int64
}

// ICacheResult is the instruction-cache measurement of the Forward
// Semantic code expansion (Config.ICache): miss ratios of the original and
// transformed binaries over the same inputs, with the code growth that
// bought the difference.
type ICacheResult struct {
	Geometry icache.Geometry
	MissOrig float64
	MissFS   float64
	Growth   float64 // FS code growth, as a fraction of the original size
}

// Delta returns MissFS − MissOrig, the miss-ratio cost of the expansion.
func (r ICacheResult) Delta() float64 { return r.MissFS - r.MissOrig }

// Eval is the complete measurement of one benchmark.
type Eval struct {
	Name    string
	Program *isa.Program
	Profile *profile.Profile
	Summary profile.Summary

	// Order lists the scored scheme names in configuration order; Schemes
	// holds each one's result. The SBTB/CBTB/FS accessors cover the paper's
	// three.
	Order   []string
	Schemes map[string]SchemeResult

	// Trace is the recorded counted-branch stream of the original binary
	// over the evaluation inputs. Sweeps replay it (see tracefile.Score)
	// instead of re-running the VM per configuration point.
	Trace *tracefile.Trace

	// FSResult is the transform FS was scored from (layout, direction
	// table, code growth at Config.EvalSlots, trace statistics). Nil when no
	// transformed scheme was scored.
	FSResult *fs.Result

	// AnalyticFS is A_FS computed from the profile alone; it must equal
	// FS().Stats.Accuracy() when evaluation inputs equal profiling inputs.
	AnalyticFS float64

	// ICache holds the instruction-cache measurement of the FS code
	// expansion; nil unless Config.ICache was set and a transformed scheme
	// was scored.
	ICache *ICacheResult

	// Attr maps scheme name to its attribution summary (top mispredicting
	// sites, interval series); nil unless Config.Attribution was set.
	Attr map[string]*attr.Summary

	// FromCorpus reports that the profile and trace were loaded from
	// Config.Corpus instead of being recorded by VM execution.
	FromCorpus bool

	// CorpusKey is the content hash consulted when Config.Corpus was set
	// ("" otherwise), VMRuns the number of live VM executions this
	// evaluation performed (0 for any warm evaluation without
	// Config.ICache), WallNS its wall-clock time, and Phases the per-phase
	// breakdown. All four feed the run manifest (see Manifest).
	CorpusKey string
	VMRuns    int64
	WallNS    int64
	Phases    []PhaseTiming

	// Degraded lists everything this evaluation survived instead of failing
	// on — a quarantined corpus entry, a failed re-store — so a run's
	// provenance records exactly what was healed or skipped. Empty on a
	// clean run; carried into the manifest.
	Degraded []DegradeEvent

	cfg   Config // resolved configuration, for Manifest
	telem *telemetry.Set
}

// Scheme returns the named scheme's result (zero value when not scored).
func (e *Eval) Scheme(name string) SchemeResult { return e.Schemes[name] }

// SBTB returns the Simple BTB result.
func (e *Eval) SBTB() SchemeResult { return e.Schemes["sbtb"] }

// CBTB returns the Counter-based BTB result.
func (e *Eval) CBTB() SchemeResult { return e.Schemes["cbtb"] }

// FS returns the Forward Semantic result.
func (e *Eval) FS() SchemeResult { return e.Schemes["fs"] }

// EvaluateBenchmark runs the full pipeline for one benchmark: a single
// profiling+recording pass over the original binary (all inputs), the
// Forward Semantic transform when fs is scored, and one trace replay that
// scores every scheme.
func EvaluateBenchmark(b *workloads.Benchmark, cfg Config) (*Eval, error) {
	return EvaluateBenchmarkContext(context.Background(), b, cfg)
}

// EvaluateBenchmarkContext is EvaluateBenchmark with cancellation: ctx is
// checked between VM runs and during trace replay.
func EvaluateBenchmarkContext(ctx context.Context, b *workloads.Benchmark, cfg Config) (*Eval, error) {
	prog, err := b.Program()
	if err != nil {
		return nil, err
	}
	inputs := b.Inputs()
	return EvaluateContext(ctx, b.Name, prog, inputs, inputs, cfg)
}

// sameInputs reports whether the two suites are content-identical, in which
// case profiling and recording share one VM pass.
func sameInputs(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// Evaluate runs the measurement pipeline for an arbitrary program:
// profiling on profInputs, scheme scoring on evalInputs. Passing the same
// slice for both reproduces the paper's methodology (§4: "the exact same
// benchmarks with the same inputs were used") and collapses profiling and
// trace recording into one pass.
func Evaluate(name string, prog *isa.Program, profInputs, evalInputs [][]byte, cfg Config) (*Eval, error) {
	return EvaluateContext(context.Background(), name, prog, profInputs, evalInputs, cfg)
}

// EvaluateContext is Evaluate with cancellation (checked between VM runs
// and periodically inside trace replay) and, when Config.Corpus is set,
// disk-backed trace reuse: a warm corpus supplies the profile and recorded
// trace without executing the VM. Only Config.ICache runs the VM over the
// transformed binary.
func EvaluateContext(ctx context.Context, name string, prog *isa.Program, profInputs, evalInputs [][]byte, cfg Config) (*Eval, error) {
	cfg = cfg.withDefaults()
	if err := cfg.SchemeConfigs.Validate(); err != nil {
		return nil, fmt.Errorf("core: %s: %w", name, err)
	}
	set := telemetry.FromContext(ctx)
	if set == nil && cfg.Telemetry != nil {
		set = cfg.Telemetry
		ctx = telemetry.NewContext(ctx, set)
	}
	wall := time.Now()
	ctx, evalSpan := telemetry.StartSpan(ctx, "core.evaluate:"+name)
	defer evalSpan.End()
	names := cfg.Schemes
	if len(names) == 0 {
		names = DefaultSchemes()
	}
	schemes := make([]predict.Scheme, len(names))
	anyTransformed := false
	for i, n := range names {
		sc, ok := predict.Lookup(n)
		if !ok {
			return nil, fmt.Errorf("core: %s: unknown scheme %q (registered: %v)",
				name, n, predict.SortedNames())
		}
		for _, prev := range names[:i] {
			if prev == n {
				return nil, fmt.Errorf("core: %s: scheme %q listed twice", name, n)
			}
		}
		schemes[i] = sc
		anyTransformed = anyTransformed || sc.Transformed
	}
	e := &Eval{Name: name, Program: prog, Profile: profile.New(),
		Order: names, Schemes: make(map[string]SchemeResult, len(names)),
		cfg: cfg, telem: set}

	// Pass 1: profile the original binary. When the evaluation suite equals
	// the profiling suite, the same pass records the replay trace — and the
	// whole pass is what a corpus entry captures, so a warm corpus replaces
	// it with a disk load.
	same := sameInputs(profInputs, evalInputs)
	var key corpus.Key
	healing := false
	if same && cfg.Corpus != nil {
		key = corpus.KeyFor(name, prog, profInputs)
		e.CorpusKey = key.Hash
		start := time.Now()
		t, p, err := cfg.Corpus.LoadContext(ctx, key)
		switch {
		case err == nil:
			e.Trace, e.Profile, e.FromCorpus = t, p, true
			e.phase("corpus.load", start)
		case corpus.IsMiss(err):
			// Cold: fall through to the live recording pass.
		case corpus.IsTransient(err):
			// The entry may be intact; only this access failed. Re-recording
			// here would silently overwrite a good entry on a disk glitch, so
			// surface the error and let the scheduler retry the evaluation.
			return nil, fmt.Errorf("core: %s: corpus load: %w", name, err)
		default:
			// Located corruption (CRC failure, truncation, torn rename):
			// quarantine the damaged files for inspection, then heal by
			// falling through to live re-recording — warm-path corruption
			// becomes a logged slowdown, not a failure.
			healing = true
			e.degrade("corpus.load", "quarantine", err.Error())
			if qerr := cfg.Corpus.QuarantineContext(ctx, key); qerr != nil {
				// Best-effort: a failed quarantine still heals (the re-store
				// below overwrites in place), it just loses the evidence.
				e.degrade("corpus.load", "quarantine_failed", qerr.Error())
				telemetry.Logger(ctx).Warn("core: quarantine failed",
					"benchmark", name, "err", qerr)
			}
		}
	}
	if e.Trace == nil {
		tr := &tracefile.Trace{}
		col := &profile.Collector{P: e.Profile}
		phook := col.Hook()
		rec := tr.Hook()
		hook := phook
		if same {
			hook = func(ev vm.BranchEvent) {
				phook(ev)
				rec(ev)
			}
		}
		start := time.Now()
		pctx, span := telemetry.StartSpan(ctx, "core.profile")
		for i, in := range profInputs {
			if err := pctx.Err(); err != nil {
				span.End()
				return nil, err
			}
			res, err := vm.Run(prog, in, hook, vm.Config{Metrics: set, Ctx: pctx, MaxSteps: cfg.MaxVMSteps})
			if err != nil {
				span.End()
				return nil, fmt.Errorf("core: %s: profiling run %d: %w", name, i, err)
			}
			e.VMRuns++
			e.Profile.Steps += res.Steps
			e.Profile.Runs++
		}
		span.End()
		e.phase("profile", start)
		if same {
			tr.Steps, tr.Runs = e.Profile.Steps, e.Profile.Runs
			if cfg.Corpus != nil {
				start := time.Now()
				if err := cfg.Corpus.PutContext(ctx, key, tr, e.Profile); err != nil {
					// The trace is in memory and the evaluation can finish;
					// losing the store only costs the next run a re-record.
					e.degrade("corpus.store", "store_failed", err.Error())
					set.Counter("core.store_degraded").Inc()
					telemetry.Logger(ctx).Warn("core: corpus store failed, continuing",
						"benchmark", name, "err", err)
				} else if healing {
					e.degrade("corpus.store", "healed", "re-recorded after quarantine")
					set.Counter("core.heals").Inc()
				}
				e.phase("corpus.store", start)
			}
		} else {
			// Distinct evaluation suite: one recording pass over it.
			start := time.Now()
			rctx, span := telemetry.StartSpan(ctx, "core.record")
			for i, in := range evalInputs {
				if err := rctx.Err(); err != nil {
					span.End()
					return nil, err
				}
				res, err := vm.Run(prog, in, rec, vm.Config{Metrics: set, Ctx: rctx, MaxSteps: cfg.MaxVMSteps})
				if err != nil {
					span.End()
					return nil, fmt.Errorf("core: %s: recording run %d: %w", name, i, err)
				}
				e.VMRuns++
				tr.Steps += res.Steps
				tr.Runs++
			}
			span.End()
			e.phase("record", start)
		}
		e.Trace = tr
	}
	e.Summary = e.Profile.Summarize()
	e.AnalyticFS = e.Profile.StaticAccuracy()

	// The transform is shared by every transformed scheme.
	var fsRes *fs.Result
	if anyTransformed {
		start := time.Now()
		_, span := telemetry.StartSpan(ctx, "core.fs.transform")
		var err error
		fsRes, err = fs.Transform(prog, e.Profile, *cfg.EvalSlots)
		span.End()
		if err != nil {
			return nil, fmt.Errorf("core: %s: transform: %w", name, err)
		}
		e.FSResult = fsRes
		e.phase("fs.transform", start)
	}

	// Build one evaluator per scheme and score them all in one replay of the
	// trace. Transformed schemes score the layout's direction table over
	// the original binary's stream, in the original binary's coordinates.
	type job struct {
		name string
		ev   *predict.Evaluator
		rec  *attr.Recorder // nil unless Config.Attribution was set
	}
	jobs := make([]*job, len(schemes))
	evs := make([]*predict.Evaluator, len(schemes))
	for i, sc := range schemes {
		var p predict.Predictor
		if sc.Transformed {
			p = fsRes.Predictor(prog)
		} else {
			p = sc.New(predict.SchemeContext{Prog: prog, Profile: e.Profile, Configs: cfg.SchemeConfigs})
		}
		j := &job{name: names[i], ev: &predict.Evaluator{P: p, FlushEvery: cfg.FlushEvery}}
		if cfg.Attribution != nil {
			j.rec = attr.NewRecorder(*cfg.Attribution)
			j.ev.Obs = j.rec
		}
		jobs[i], evs[i] = j, j.ev
	}
	start := time.Now()
	rctx, span := telemetry.StartSpan(ctx, "core.replay")
	err := tracefile.Score(rctx, e.Trace, evs)
	span.End()
	if err != nil {
		return nil, err
	}
	e.phase("replay", start)
	if cfg.ICache != nil && fsRes != nil {
		start := time.Now()
		ictx, span := telemetry.StartSpan(ctx, "core.icache")
		orig := cfg.ICache.New()
		fsSim := cfg.ICache.New()
		fm := icache.NewFSFetch(fsRes.Prog, fsSim)
		for i, in := range evalInputs {
			if err := ictx.Err(); err != nil {
				span.End()
				return nil, err
			}
			if _, err := vm.Run(prog, in, nil, vm.Config{Trace: orig.Access, Metrics: set, Ctx: ictx, MaxSteps: cfg.MaxVMSteps}); err != nil {
				span.End()
				return nil, fmt.Errorf("core: %s: icache original run %d: %w", name, i, err)
			}
			if _, err := vm.Run(fsRes.Prog, in, nil, vm.Config{Trace: fm.Trace, Metrics: set, Ctx: ictx, MaxSteps: cfg.MaxVMSteps}); err != nil {
				span.End()
				return nil, fmt.Errorf("core: %s: icache FS run %d: %w", name, i, err)
			}
			e.VMRuns += 2
		}
		span.End()
		e.ICache = &ICacheResult{
			Geometry: *cfg.ICache,
			MissOrig: orig.MissRatio(), MissFS: fsSim.MissRatio(),
			Growth: fsRes.CodeGrowth(),
		}
		e.phase("icache", start)
	}
	for _, j := range jobs {
		res := SchemeResult{Stats: j.ev.S}
		if ms, ok := j.ev.P.(predict.MetricSource); ok {
			res.Extra = ms.Metrics()
		}
		e.Schemes[j.name] = res
		if set != nil {
			// Scheme names are user-visible registry keys ("always-taken"),
			// not metric segments; sanitize before building metric names.
			seg := telemetry.MetricSegment(j.name)
			set.Counter("scheme." + seg + ".hits").Add(j.ev.S.Hits)
			set.Counter("scheme." + seg + ".misses").Add(j.ev.S.Misses)
			set.Counter("scheme." + seg + ".branches").Add(j.ev.S.Branches)
		}
		if j.rec != nil {
			if err := j.rec.Check(j.ev.S); err != nil {
				// A divergence here is an engine bug, never a workload
				// property; fail loudly rather than report wrong forensics.
				return nil, fmt.Errorf("core: %s: scheme %s: %w", name, j.name, err)
			}
			if e.Attr == nil {
				e.Attr = make(map[string]*attr.Summary, len(jobs))
			}
			e.Attr[j.name] = j.rec.Summarize(j.name, name)
			j.rec.FeedHistogram(set.Histogram("attr.site.mispredicts"))
		}
	}
	e.WallNS = time.Since(wall).Nanoseconds()
	telemetry.Logger(ctx).Debug("core: evaluated benchmark",
		"benchmark", name, "vm_runs", e.VMRuns, "from_corpus", e.FromCorpus,
		"wall_ns", e.WallNS)
	return e, nil
}

// phase appends one completed phase timing.
func (e *Eval) phase(name string, start time.Time) {
	e.Phases = append(e.Phases, PhaseTiming{Name: name, DurationNS: time.Since(start).Nanoseconds()})
}

// degrade appends one survived-degradation record.
func (e *Eval) degrade(phase, kind, detail string) {
	e.Degraded = append(e.Degraded, DegradeEvent{Phase: phase, Kind: kind, Detail: detail})
}

// Cost evaluates a frontend cost model for each scheme at the given
// operating point, returning SBTB, CBTB and FS costs. Any pipeline.CostModel
// works; the analytic pipeline.Config reproduces the paper's single-issue
// numbers, the wider models (pipeline.Superscalar, pipeline.VariableFetch)
// its superscalar extrapolations.
func (e *Eval) Cost(m pipeline.CostModel) (sbtb, cbtb, fsc float64) {
	return m.Cost(e.SBTB().Stats.Accuracy()),
		m.Cost(e.CBTB().Stats.Accuracy()),
		m.Cost(e.FS().Stats.Accuracy())
}
