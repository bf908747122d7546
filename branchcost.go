// Package branchcost reproduces Hwu, Conte and Chang, "Comparing Software
// and Hardware Schemes For Reducing the Cost of Branches" (ISCA 1989).
//
// It provides, end to end, everything the paper's evaluation needs:
//
//   - an MC (mini-C) compiler targeting a compare-and-branch register ISA
//     (internal/lang, internal/compile, internal/isa);
//   - a functional simulator streaming branch events (internal/vm);
//   - a profiler (internal/profile);
//   - the two hardware schemes — Simple and Counter-based Branch Target
//     Buffers (internal/btb);
//   - the software scheme — the Forward Semantic: profile-guided likely
//     bits, trace selection, and forward-slot filling (internal/fs);
//   - the pipeline cost model and a cycle-level validator
//     (internal/pipeline);
//   - a streaming trace codec and disk-backed trace corpus for
//     record-once/replay-many evaluation (internal/tracefile,
//     internal/corpus);
//   - the paper's 12 benchmarks re-implemented in MC (internal/workloads);
//   - and harnesses regenerating every table and figure
//     (internal/experiments).
//
// This root package is the stable façade: it re-exports the types and
// functions a user composes, so typical programs import only branchcost.
// The examples/ directory shows complete programs built on it.
package branchcost

import (
	"context"
	"io"

	"branchcost/internal/btb"
	"branchcost/internal/compile"
	"branchcost/internal/core"
	"branchcost/internal/corpus"
	"branchcost/internal/fs"
	"branchcost/internal/isa"
	"branchcost/internal/opt"
	"branchcost/internal/pipeline"
	"branchcost/internal/predict"
	"branchcost/internal/profile"
	"branchcost/internal/telemetry"
	"branchcost/internal/tracefile"
	"branchcost/internal/vm"
	"branchcost/internal/workloads"
)

// Program is a compiled executable image (see internal/isa).
type Program = isa.Program

// Inst is one machine instruction.
type Inst = isa.Inst

// Compile translates MC source files (sharing one global namespace, with a
// main function) into a Program.
func Compile(sources ...string) (*Program, error) { return compile.Compile(sources...) }

// Optimize runs the optimizer (constant folding, copy propagation, dead
// writes, redundant load elimination) over an untransformed program.
func Optimize(p *Program) (*Program, error) { return opt.Optimize(p) }

// RunConfig bounds a program execution.
type RunConfig = vm.Config

// RunResult is the outcome of one execution.
type RunResult = vm.Result

// BranchEvent describes one executed branch, as seen by predictors.
type BranchEvent = vm.BranchEvent

// BranchFunc observes executed branches during a run.
type BranchFunc = vm.BranchFunc

// Run executes a program on the given input; hook (optional) observes every
// branch.
func Run(p *Program, input []byte, hook BranchFunc, cfg RunConfig) (RunResult, error) {
	return vm.Run(p, input, hook, cfg)
}

// Profile holds merged branch statistics across runs.
type Profile = profile.Profile

// CollectProfile runs the program over the input suite and returns its
// profile (the paper's probe-based profiling step).
func CollectProfile(p *Program, inputs [][]byte) (*Profile, error) {
	prof := profile.New()
	col := &profile.Collector{P: prof}
	hook := col.Hook()
	for _, in := range inputs {
		res, err := vm.Run(p, in, hook, vm.Config{})
		if err != nil {
			return nil, err
		}
		prof.Steps += res.Steps
		prof.Runs++
	}
	return prof, nil
}

// Predictor is the branch-prediction scheme abstraction; Prediction and
// PredictionStats score it over a branch stream.
type (
	Predictor       = predict.Predictor
	Prediction      = predict.Prediction
	PredictionStats = predict.Stats
	Evaluator       = predict.Evaluator
)

// NewSBTB returns the paper's Simple Branch Target Buffer (256-entry fully
// associative with NewSBTB(256, 256)).
func NewSBTB(entries, assoc int) Predictor { return btb.NewSBTB(entries, assoc) }

// NewCBTB returns the paper's Counter-based Branch Target Buffer (paper
// configuration: NewCBTB(256, 256, 2, 2)).
func NewCBTB(entries, assoc, counterBits int, threshold uint8) Predictor {
	return btb.NewCBTB(entries, assoc, counterBits, threshold)
}

// NewLikelyBit returns the Forward Semantic's predictor: it follows the
// compiler's likely-taken bit carried by the (transformed) program.
func NewLikelyBit(p *Program) Predictor {
	return predict.LikelyBit{Targets: predict.ProgramTargets{Prog: p}}
}

// Scheme describes one named prediction scheme in the open registry; its
// constructor receives the evaluation's program, profile and hardware
// parameters. Every built-in scheme ("sbtb", "cbtb", "fs", the static
// baselines) is pre-registered; user schemes join with RegisterScheme.
type Scheme = predict.Scheme

// SchemeContext is what a Scheme constructor sees.
type SchemeContext = predict.SchemeContext

// SchemeConfig is the typed per-scheme configuration interface; a scheme's
// Defaults() returns its concrete config struct (the paper's configuration
// for the paper's schemes), and callers override individual fields before
// handing the set to an evaluation.
type SchemeConfig = predict.SchemeConfig

// ConfigSet maps scheme names to configuration overrides; Resolved merges an
// entry over the scheme's registered defaults and normalizes it. A nil set
// (or an absent entry) means pure defaults.
type ConfigSet = predict.ConfigSet

// The concrete per-scheme configuration structs. Zero-valued fields resolve
// to the scheme's defaults; see each scheme's Defaults() for the baseline.
type (
	BTBGeometry      = predict.BTBGeometry
	CounterConfig    = predict.CounterConfig
	SBTBConfig       = predict.SBTBConfig
	CBTBConfig       = predict.CBTBConfig
	TwoLevelConfig   = predict.TwoLevelConfig
	HistoryConfig    = predict.HistoryConfig
	PerceptronConfig = predict.PerceptronConfig
	TAGEConfig       = predict.TAGEConfig
)

// RegisterScheme adds a scheme to the global registry. It panics on a
// duplicate or invalid registration, mirroring database/sql.Register.
func RegisterScheme(s Scheme) { predict.Register(s) }

// Schemes lists every registered scheme name in registration order.
func Schemes() []string { return predict.Names() }

// DefaultSchemes is the paper's evaluation set: sbtb, cbtb, fs.
func DefaultSchemes() []string { return core.DefaultSchemes() }

// TransformResult is the outcome of the Forward Semantic transform.
type TransformResult = fs.Result

// Transform applies the Forward Semantic to a program: likely bits from the
// profile, trace selection and layout, and slotCount (= k+ℓ) forward slots
// after every predicted-taken trace-ending branch.
func Transform(p *Program, prof *Profile, slotCount int) (*TransformResult, error) {
	return fs.Transform(p, prof, slotCount)
}

// PipelineConfig is one operating point (k, ℓ̄, m̄) of the paper's cost
// model: cost = A + (k+ℓ̄+m̄)(1−A) cycles per branch.
type PipelineConfig = pipeline.Config

// CostModel is the frontend cost-model seam Eval.Cost consumes: any
// implementation maps a prediction accuracy to cycles per branch.
// PipelineConfig is the analytic width-1 implementation; Superscalar and
// VariableFetch extend it to wide fetch.
type CostModel = pipeline.CostModel

// Superscalar is the width-W cost model with fetch-block alignment
// accounting: every fetch redirect abandons (W−1)/(2W) slots on average,
// charged per branch at the calibrated BreakRate.
type Superscalar = pipeline.Superscalar

// VariableFetch is the width-W cost model where the flush penalty scales
// with the sustained instruction fetch rate R: penalty = 1 + R·(P−1).
type VariableFetch = pipeline.VariableFetch

// Config selects the schemes to score, their typed configurations
// (SchemeConfigs) and the FS slot depth for a full evaluation; the zero
// value is the paper's configuration. The pointer field EvalSlots
// distinguishes "unset" from an explicit zero — build it with Ptr.
type Config = core.Config

// Ptr returns a pointer to v, for pointer-valued fields such as
// Config.EvalSlots and CounterConfig.Threshold.
func Ptr[T any](v T) *T { return core.Ptr(v) }

// Eval is the complete measurement of one benchmark: the shared profile and
// recorded trace, plus one SchemeResult per evaluated scheme (SBTB/CBTB/FS
// accessors cover the paper's three).
type Eval = core.Eval

// SchemeResult is one scheme's score within an Eval.
type SchemeResult = core.SchemeResult

// Trace is the recorded branch-event stream an evaluation replays; it can
// be replayed again (Replay, ScoreParallelContext) or serialized in the
// BCT2 encoding (WriteTo / WriteTrace).
type Trace = tracefile.Trace

// RecordTrace executes the program over the input suite and returns the
// recorded branch trace — the record half of record-once/replay-many.
func RecordTrace(p *Program, inputs [][]byte) (*Trace, error) {
	return tracefile.Record(p, inputs)
}

// WriteTrace serializes a trace to w in the current (BCT2) encoding.
// Callers writing to disk should wrap w in a bufio.Writer.
func WriteTrace(w io.Writer, t *Trace) error {
	_, err := t.WriteTo(w)
	return err
}

// ReadTrace materializes a BCT2 trace from r; any other stream, a file in
// the retired BCT1 encoding included, fails with a bad-magic error.
func ReadTrace(r io.Reader) (*Trace, error) { return tracefile.ReadTrace(r) }

// Corpus is the disk-backed trace store: entries are keyed by a content
// hash of the (program, input suite) pair, so a warm corpus lets Evaluate
// skip VM execution entirely for hardware-scheme scoring. Wire one into
// Config.Corpus, or set $BRANCHCOST_CORPUS and use CorpusFromEnv.
type Corpus = corpus.Store

// CorpusKey identifies one corpus entry.
type CorpusKey = corpus.Key

// OpenCorpus opens (creating if needed) a corpus rooted at dir.
func OpenCorpus(dir string) (*Corpus, error) { return corpus.Open(dir) }

// CorpusFromEnv opens the corpus named by $BRANCHCOST_CORPUS, or returns
// (nil, nil) when the variable is unset — corpus use is strictly opt-in.
func CorpusFromEnv() (*Corpus, error) { return corpus.FromEnv() }

// Corpus failures carry a typed classification so callers can pick the
// right recovery: a miss is recorded fresh, corruption is quarantined and
// healed, and transient I/O is worth retrying. All three match with
// errors.Is through arbitrary wrapping.
var (
	// ErrCorpusMiss: the entry is absent (or quarantined) — record it.
	ErrCorpusMiss = corpus.ErrMiss
	// ErrCorpusCorrupt: the bytes are present but provably bad (CRC
	// mismatch, truncation) — quarantine and re-record.
	ErrCorpusCorrupt = corpus.ErrCorrupt
	// ErrCorpusIO: the environment failed (open/read/rename error) — the
	// entry may be fine; retry before concluding anything.
	ErrCorpusIO = corpus.ErrIO
	// ErrMaxSteps: a VM run exceeded RunConfig.MaxSteps (the runaway-
	// workload watchdog).
	ErrMaxSteps = vm.ErrMaxSteps
)

// IsCorpusMiss reports whether err classifies as an absent corpus entry.
func IsCorpusMiss(err error) bool { return corpus.IsMiss(err) }

// IsCorpusCorrupt reports whether err classifies as a corrupt corpus entry.
func IsCorpusCorrupt(err error) bool { return corpus.IsCorrupt(err) }

// IsTransient reports whether err is a transient corpus I/O failure — one
// that retrying (with backoff) may clear.
func IsTransient(err error) bool { return corpus.IsTransient(err) }

// Evaluate measures all three schemes on a program: profiling on
// profInputs, scoring on evalInputs (pass the same suite for the paper's
// methodology).
func Evaluate(name string, p *Program, profInputs, evalInputs [][]byte, cfg Config) (*Eval, error) {
	return core.Evaluate(name, p, profInputs, evalInputs, cfg)
}

// EvaluateContext is Evaluate with cancellation: ctx is honored between VM
// runs and periodically during trace replay.
func EvaluateContext(ctx context.Context, name string, p *Program, profInputs, evalInputs [][]byte, cfg Config) (*Eval, error) {
	return core.EvaluateContext(ctx, name, p, profInputs, evalInputs, cfg)
}

// Telemetry is the instrumentation registry threaded through every layer:
// named counters and gauges, hierarchical timed spans, and a structured
// logger. A nil *Telemetry disables instrumentation at near-zero cost. Wire
// one into Config.Telemetry (or onto a context with WithTelemetry) and read
// it back with Snapshot or an Eval's Manifest.
type Telemetry = telemetry.Set

// TelemetrySnapshot is a point-in-time copy of a Telemetry set's counters,
// gauges, and span trees, serializable as JSON.
type TelemetrySnapshot = telemetry.Snapshot

// NewTelemetry returns an enabled, empty telemetry set.
func NewTelemetry() *Telemetry { return telemetry.New() }

// WithTelemetry returns ctx carrying the set; EvaluateContext and everything
// below it (corpus access, trace replay, VM runs) report into it.
func WithTelemetry(ctx context.Context, t *Telemetry) context.Context {
	return telemetry.NewContext(ctx, t)
}

// Manifest is the machine-readable record of one evaluation — resolved
// configuration, data provenance (corpus key, VM run count), per-phase
// timings, per-scheme scores, and an optional telemetry snapshot. Build one
// with Eval.Manifest; the CLI tools write them via -metrics.
type Manifest = core.Manifest

// Benchmark is a member of the paper's workload suite.
type Benchmark = workloads.Benchmark

// Benchmarks returns the full suite (ten primary benchmarks in the paper's
// order, then eqn and espresso).
func Benchmarks() []*Benchmark { return workloads.All() }

// BenchmarkByName looks up one benchmark.
func BenchmarkByName(name string) (*Benchmark, error) { return workloads.ByName(name) }

// EvaluateBenchmark measures one suite benchmark with its input suite.
func EvaluateBenchmark(b *Benchmark, cfg Config) (*Eval, error) {
	return core.EvaluateBenchmark(b, cfg)
}

// EvaluateBenchmarkContext is EvaluateBenchmark with cancellation.
func EvaluateBenchmarkContext(ctx context.Context, b *Benchmark, cfg Config) (*Eval, error) {
	return core.EvaluateBenchmarkContext(ctx, b, cfg)
}
