package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"branchcost/internal/compile"
	"branchcost/internal/core"
	"branchcost/internal/corpus"
	"branchcost/internal/experiments"
	"branchcost/internal/fs"
	"branchcost/internal/isa"
	"branchcost/internal/opt"
	"branchcost/internal/predict"
	"branchcost/internal/profile"
	"branchcost/internal/telemetry"
	"branchcost/internal/tracefile"
	"branchcost/internal/vm"
	"branchcost/internal/workloads"
)

// The traced run repeats a workload's operations once, calling each
// layer's exported entry point directly, in the order core.EvaluateContext
// and the upload handler call them, with a harness span around each call.
// After the traced pass, probes time the replay and codec layers alone.
// Layers a workload never reaches report 0.

// perLayer lists every per-layer metric with its unit, in report order.
var perLayer = func() []struct{ name, unit string } {
	m := []struct{ name, unit string }{
		{"workloads.input_s", "s"}, {"workloads.input_bytes", "bytes"},
		{"compile.compile_s", "s"}, {"opt.optimize_s", "s"}, {"compile.insts", "count"},
		{"vm.record_s", "s"}, {"vm.steps", "count"}, {"vm.ns_per_step", "ns"},
		{"tracefile.encode_s", "s"}, {"tracefile.bytes_per_event", "bytes"},
		{"tracefile.decode_s", "s"}, {"tracefile.decode_ns_per_event", "ns"},
		{"corpus.put_s", "s"}, {"corpus.load_s", "s"}, {"corpus.hit_ratio", "ratio"},
		{"predict.noop.ns_per_event", "ns"},
	}
	for _, s := range allSchemes {
		if s != "fs" {
			m = append(m, struct{ name, unit string }{"predict." + s + ".ns_per_event", "ns"})
		}
	}
	return append(m, []struct{ name, unit string }{
		{"predict.parallel_efficiency", "ratio"},
		{"fs.transform_s", "s"}, {"fs.eval_s", "s"}, {"fs.eval_steps", "count"},
		{"experiments.busy_ratio", "ratio"},
		{"serve.overhead_ms", "ms"}, {"serve.admit_ratio", "ratio"},
		{"serve.req_p50_ms", "ms"}, {"serve.req_p95_ms", "ms"},
		{"telemetry.replay_counter_ns_per_event", "ns"},
		{"runtime.alloc_mb", "MB"}, {"runtime.gc_cycles", "count"}, {"runtime.peak_rss_mb", "MB"},
		{"trace.pass_s", "s"}, {"trace.untraced_pass_s", "s"}, {"trace.overhead_pass_s", "s"},
		{"trace.req_per_s", "1/s"}, {"trace.untraced_req_per_s", "1/s"}, {"trace.overhead_req_per_s", "1/s"},
	}...)
}()

func perLayerNames() []string {
	out := make([]string, len(perLayer))
	for i, m := range perLayer {
		out[i] = m.name
	}
	return out
}

// noop is the do-nothing predictor that prices the replay engine alone. It
// is built directly and never registered.
type noop struct{}

func (noop) Name() string                              { return "noop" }
func (noop) Predict(vm.BranchEvent) predict.Prediction { return predict.Prediction{} }
func (noop) Update(vm.BranchEvent)                     {}
func (noop) Reset()                                    {}

// compileTraced compiles and optimizes a benchmark's sources, exactly as
// Benchmark.Program does, with a span around each step.
func compileTraced(r *run, b *workloads.Benchmark, op string, parent, lane int) (*isa.Program, error) {
	sp := r.tr.begin(op, "compile.compile", parent, lane)
	raw, err := compile.CompileOpts(compile.Options{Inline: true}, b.Sources...)
	r.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", b.Name, err)
	}
	sp = r.tr.begin(op, "opt.optimize", parent, lane)
	prog, err := opt.Optimize(raw)
	r.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("optimize %s: %w", b.Name, err)
	}
	r.insts.Add(int64(len(prog.Code)))
	return prog, nil
}

// recordTraced is the recording pass: one VM run per input feeding both
// the profile collector and the trace recorder.
func recordTraced(ctx context.Context, r *run, prog *isa.Program, inputs [][]byte, op string, parent, lane int) (*tracefile.Trace, *profile.Profile, error) {
	prof := profile.New()
	tr := &tracefile.Trace{}
	phook, rec := (&profile.Collector{P: prof}).Hook(), tr.Hook()
	hook := func(ev vm.BranchEvent) {
		phook(ev)
		rec(ev)
	}
	sp := r.tr.begin(op, "vm.record", parent, lane)
	defer r.tr.end(sp)
	for i, in := range inputs {
		res, err := vm.Run(prog, in, hook, vm.Config{Ctx: ctx})
		if err != nil {
			return nil, nil, fmt.Errorf("recording run %d: %w", i, err)
		}
		prof.Steps += res.Steps
		prof.Runs++
	}
	tr.Steps, tr.Runs = prof.Steps, prof.Runs
	r.steps.Add(prof.Steps)
	return tr, prof, nil
}

// traceSetupBench is suite-warm's set-up of one benchmark with spans.
func traceSetupBench(ctx context.Context, r *run, name string, lane int, st *corpus.Store) (*workloads.Benchmark, error) {
	op := "setup:" + name
	sb, err := seeded(name, r.seed)
	if err != nil {
		return nil, err
	}
	sp := r.tr.begin(op, "workloads.input", -1, lane)
	set := inputSet{bench: sb, inputs: sb.Inputs()}
	r.tr.end(sp)
	r.addInputs(set.inputs...)
	b := set.withInputs()
	prog, err := compileTraced(r, b, op, -1, lane)
	if err != nil {
		return nil, err
	}
	in := b.Inputs()
	tr, prof, err := recordTraced(ctx, r, prog, in, op, -1, lane)
	if err != nil {
		return nil, err
	}
	sp = r.tr.begin(op, "corpus.put", -1, lane)
	err = st.PutContext(ctx, corpus.KeyFor(name, prog, in), tr, prof)
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	// The untraced pass of the traced run evaluates through the Suite, which
	// compiles through Benchmark.Program; fill its cache outside any span.
	if _, err := b.Program(); err != nil {
		return nil, err
	}
	return b, nil
}

// evalOut is one traced benchmark evaluation.
type evalOut struct {
	name    string
	prog    *isa.Program
	prof    *profile.Profile
	trace   *tracefile.Trace
	stats   map[string]predict.Stats
	hit     bool
	fsSteps int64
}

// traceEval evaluates one benchmark the way core.EvaluateContext does with
// a corpus configured and profiling inputs equal to evaluation inputs.
func traceEval(ctx context.Context, r *run, b *workloads.Benchmark, cold bool, st *corpus.Store, schemes []string, lane int) (*evalOut, error) {
	op := "eval:" + b.Name
	root := r.tr.begin(op, "experiments.eval", -1, lane)
	defer r.tr.end(root)
	out := &evalOut{name: b.Name, stats: map[string]predict.Stats{}}
	var err error
	if cold {
		out.prog, err = compileTraced(r, b, op, root, lane)
	} else {
		out.prog, err = b.Program()
	}
	if err != nil {
		return nil, err
	}
	in := b.Inputs()
	sp := r.tr.begin(op, "corpus.key", root, lane)
	key := corpus.KeyFor(b.Name, out.prog, in)
	r.tr.end(sp)
	sp = r.tr.begin(op, "corpus.load", root, lane)
	out.trace, out.prof, err = st.LoadContext(ctx, key)
	r.tr.end(sp)
	switch {
	case err == nil:
		out.hit = true
	case corpus.IsMiss(err):
		if out.trace, out.prof, err = recordTraced(ctx, r, out.prog, in, op, root, lane); err != nil {
			return nil, err
		}
		sp = r.tr.begin(op, "corpus.put", root, lane)
		err = st.PutContext(ctx, key, out.trace, out.prof)
		r.tr.end(sp)
		if err != nil {
			return nil, err
		}
	default:
		return nil, err
	}
	sp = r.tr.begin(op, "fs.transform", root, lane)
	fsRes, err := fs.Transform(out.prog, out.prof, 2)
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	configs := core.Config{}.Configs()
	var hooks []vm.BranchFunc
	var fsEv *predict.Evaluator
	evs := make([]*predict.Evaluator, len(schemes))
	for i, n := range schemes {
		sc := predict.MustLookup(n)
		sctx := predict.SchemeContext{Prog: out.prog, Profile: out.prof, Configs: configs}
		if sc.Transformed {
			sctx.Prog = fsRes.Prog
		}
		evs[i] = &predict.Evaluator{P: sc.New(sctx)}
		if sc.Transformed {
			fsEv = evs[i]
		} else {
			hooks = append(hooks, evs[i].Hook())
		}
	}
	sp = r.tr.begin(op, "predict.replay", root, lane)
	err = out.trace.ScoreParallelContext(ctx, hooks...)
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	if fsEv != nil {
		hook := func(ev vm.BranchEvent) {
			if !fsRes.SyntheticID(ev.ID) {
				fsEv.Observe(ev)
			}
		}
		sp = r.tr.begin(op, "fs.eval", root, lane)
		for i, x := range in {
			res, err := vm.Run(fsRes.Prog, x, hook, vm.Config{Ctx: ctx})
			if err != nil {
				r.tr.end(sp)
				return nil, fmt.Errorf("FS evaluation run %d: %w", i, err)
			}
			out.fsSteps += res.Steps
		}
		r.tr.end(sp)
	}
	for i, n := range schemes {
		out.stats[n] = evs[i].S
	}
	return out, nil
}

// tracedSuite is the traced run of suite-warm (warm) or record-cold.
func tracedSuite(ctx context.Context, r *run, warm bool) error {
	schemes := paperSchemes
	var lookup func(string) (*workloads.Benchmark, error)
	var warmStore *corpus.Store
	if warm {
		schemes = allSchemes
		wc, err := setupWarm(ctx, r, filepath.Join(r.tmp, "corpus-setup"))
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		lookup, warmStore = wc.lookup, wc.store
	} else {
		sets, err := genInputs(r)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		lookup = coldLookup(sets)
	}
	store := func(name string) (*corpus.Store, error) {
		if warm {
			return warmStore, nil
		}
		return corpus.Open(filepath.Join(r.tmp, name))
	}

	chk, err := newEvalChecker(r.seed, schemes)
	if err != nil {
		return err
	}
	// Untraced passes before and after the traced one give the tracing
	// overhead's baseline (their mean, so that neither side bears the
	// process's first, slower pass alone), the scheduler's busy ratio and
	// the Eval.Phases cross-check.
	var (
		untracedWall, busy float64
		first              *experiments.Partial
		mem                *passMeter
		phases             = map[string]float64{}
	)
	untracedPass := func(name string) error {
		st, err := store(name)
		if err != nil {
			return err
		}
		p, m := suitePass(ctx, st, schemes, lookup)
		var ps passStats
		ps.account(r, chk, p, m)
		untracedWall += m.Wall.Seconds() / 2
		for _, e := range p.Evals {
			if e == nil {
				continue
			}
			busy += float64(e.WallNS) / 1e9 / 2
			for _, ph := range e.Phases {
				phases[ph.Name] += float64(ph.DurationNS) / 1e9 / 2
			}
		}
		if first == nil {
			first = p
		}
		mem = m
		return nil
	}
	if err := untracedPass("corpus-untraced1"); err != nil {
		return err
	}

	// The traced pass.
	st, err := store("corpus-traced")
	if err != nil {
		return err
	}
	outs := make([]*evalOut, len(benchNames))
	tm := startPass()
	err = forEach(func(i int, name string, lane int) error {
		b, err := lookup(name)
		if err != nil {
			return err
		}
		outs[i], err = traceEval(ctx, r, b, !warm, st, schemes, lane)
		return err
	})
	tm.stop()
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	if err := untracedPass("corpus-untraced2"); err != nil {
		return err
	}
	hits := 0
	for i, o := range outs {
		r.attempted++
		if o.hit {
			hits++
		}
		if e := first.Evals[i]; e == nil || !sameStats(e, o.stats) {
			r.failed++
			r.fail("%s: traced pass stats differ from the untraced pass", o.name)
		}
	}

	// Probes over the traced pass's traces.
	replayed := []string{"sbtb", "cbtb"}
	if warm {
		replayed = replayable(allSchemes)
	}
	var traces []probeTrace
	events := 0
	fsSteps := int64(0)
	for _, o := range outs {
		traces = append(traces, probeTrace{op: "probe:" + o.name, tr: o.trace, prog: o.prog, prof: o.prof})
		events += o.trace.Len()
		fsSteps += o.fsSteps
	}
	// Nothing on record-cold's path decodes a trace.
	pr, err := probe(ctx, r, traces, replayed, warm, false)
	if err != nil {
		return err
	}

	sum := summarize(r.tr.snapshot())
	layerMetrics(r, sum)
	pr.report(r)
	n := float64(len(benchNames))
	r.set("corpus.hit_ratio", float64(hits)/n, "ratio")
	r.set("fs.eval_steps", float64(fsSteps), "count")
	r.set("experiments.busy_ratio", busy/(workers*untracedWall), "ratio")
	r.set("runtime.alloc_mb", mem.AllocMB, "MB")
	r.set("runtime.gc_cycles", mem.GCs, "count")
	r.set("runtime.peak_rss_mb", mem.PeakMB, "MB")
	r.set("trace.pass_s", tm.Wall.Seconds(), "s")
	r.set("trace.untraced_pass_s", untracedWall, "s")
	r.set("trace.overhead_pass_s", tm.Wall.Seconds()-untracedWall, "s")
	r.set("trace.req_per_s", n/tm.Wall.Seconds(), "1/s")
	r.set("trace.untraced_req_per_s", n/untracedWall, "1/s")
	r.set("trace.overhead_req_per_s", n/tm.Wall.Seconds()-n/untracedWall, "1/s")
	cross := map[string][2]float64{
		"corpus.load": {phases["corpus.load"], sum.total("corpus.load")},
		"replay":      {phases["replay"], sum.total("predict.replay")},
		"fs.eval":     {phases["fs.eval"], sum.total("fs.eval")},
	}
	return writeTraceFiles(r, sum, cross, events)
}

// sameStats reports whether an untraced evaluation scored exactly the
// traced pass's stats.
func sameStats(e *core.Eval, stats map[string]predict.Stats) bool {
	for n, s := range stats {
		if e.Schemes[n].Stats != s {
			return false
		}
	}
	return len(stats) == len(e.Schemes)
}

// replayable drops the transformed schemes, which score a second VM pass
// instead of the recorded trace.
func replayable(schemes []string) []string {
	var out []string
	for _, n := range schemes {
		if !predict.MustLookup(n).Transformed {
			out = append(out, n)
		}
	}
	return out
}

// probeTrace is one trace the probes replay, with the program context the
// context-needing schemes are built from.
type probeTrace struct {
	op   string
	tr   *tracefile.Trace
	prog *isa.Program
	prof *profile.Profile
	body []byte // the encoded trace, when the workload already has it
}

// probeResult is what the probes measured, summed over the traces.
type probeResult struct {
	events           int
	encodeS, decodeS float64
	encodedBytes     int64
	noopS            float64
	schemeS          map[string]float64
	parallelS        float64
	nSchemes         int
	telemetryS       float64 // with-minus-without telemetry, 8-scheme replay
	inprocS          []float64
}

// probe times each layer alone over the traces: BCT2 encode and decode,
// the replay engine with the no-op predictor, each scheme alone on one
// goroutine, the same schemes through ScoreParallelContext, and — for the
// daemon — that parallel replay with and without a telemetry Set.
func probe(ctx context.Context, r *run, traces []probeTrace, schemes []string, decode, daemon bool) (*probeResult, error) {
	runtime.GC()
	pr := &probeResult{schemeS: map[string]float64{}, nSchemes: len(schemes)}
	configs := core.Config{}.Configs()
	for _, t := range traces {
		pr.events += t.tr.Len()
		body := t.body
		if body == nil {
			var buf bytes.Buffer
			sp := r.tr.begin(t.op, "tracefile.encode", -1, 0)
			start := time.Now()
			_, err := t.tr.WriteTo(&buf)
			pr.encodeS += time.Since(start).Seconds()
			r.tr.end(sp)
			if err != nil {
				return nil, err
			}
			body = buf.Bytes()
		}
		pr.encodedBytes += int64(len(body))
		if decode {
			dctx := ctx
			if daemon {
				dctx = telemetry.NewContext(ctx, telemetry.New())
			}
			sp := r.tr.begin(t.op, "tracefile.decode", -1, 0)
			start := time.Now()
			_, err := tracefile.ReadTraceContext(dctx, bytes.NewReader(body))
			d := time.Since(start).Seconds()
			r.tr.end(sp)
			if err != nil {
				return nil, err
			}
			pr.decodeS += d
			if daemon {
				pr.inprocS = append(pr.inprocS, d)
			}
		}
		sctx := predict.SchemeContext{Prog: t.prog, Profile: t.prof, Configs: configs}
		timeReplay := func(name string, p predict.Predictor) float64 {
			ev := &predict.Evaluator{P: p}
			sp := r.tr.begin(t.op, "predict."+name, -1, 0)
			start := time.Now()
			t.tr.Replay(ev.Hook())
			d := time.Since(start).Seconds()
			r.tr.end(sp)
			return d
		}
		pr.noopS += timeReplay("noop", noop{})
		for _, n := range schemes {
			pr.schemeS[n] += timeReplay(n, predict.MustLookup(n).New(sctx))
		}
		parallel := func(pctx context.Context, name string) (float64, error) {
			hooks := make([]vm.BranchFunc, len(schemes))
			for i, n := range schemes {
				hooks[i] = (&predict.Evaluator{P: predict.MustLookup(n).New(sctx)}).Hook()
			}
			sp := r.tr.begin(t.op, name, -1, 0)
			start := time.Now()
			err := t.tr.ScoreParallelContext(pctx, hooks...)
			d := time.Since(start).Seconds()
			r.tr.end(sp)
			return d, err
		}
		d, err := parallel(ctx, "predict.parallel")
		if err != nil {
			return nil, err
		}
		pr.parallelS += d
		if daemon {
			// serve.New always attaches a Set, so the handler's replay pays
			// for the per-event counter.
			dt, err := parallel(telemetry.NewContext(ctx, telemetry.New()), "predict.parallel_telemetry")
			if err != nil {
				return nil, err
			}
			pr.telemetryS += dt - d
			pr.inprocS[len(pr.inprocS)-1] += dt
		}
	}
	return pr, nil
}

// report sets the probe-derived per-layer metrics.
func (pr *probeResult) report(r *run) {
	ev := float64(pr.events)
	r.set("tracefile.encode_s", pr.encodeS, "s")
	r.set("tracefile.bytes_per_event", float64(pr.encodedBytes)/ev, "bytes")
	r.set("tracefile.decode_s", pr.decodeS, "s")
	r.set("tracefile.decode_ns_per_event", pr.decodeS*1e9/ev, "ns")
	r.set("predict.noop.ns_per_event", pr.noopS*1e9/ev, "ns")
	single := 0.0
	for n, s := range pr.schemeS {
		r.set("predict."+n+".ns_per_event", s*1e9/ev, "ns")
		single += s
	}
	r.set("predict.parallel_efficiency", single/(workers*pr.parallelS), "ratio")
	if pr.telemetryS != 0 {
		r.set("telemetry.replay_counter_ns_per_event", pr.telemetryS*1e9/(ev*float64(pr.nSchemes)), "ns")
	}
}

// layerSummary maps a span name to its totals.
type layerSummary map[string]*layerStat

// total is a span name's summed duration (0 when absent).
func (s layerSummary) total(name string) float64 {
	if st := s[name]; st != nil {
		return st.TotalS
	}
	return 0
}

// self is a span name's summed self time (0 when absent).
func (s layerSummary) self(name string) float64 {
	if st := s[name]; st != nil {
		return st.SelfS
	}
	return 0
}

// layerMetrics sets every per-layer metric to 0, then the span-derived
// ones from the summary. Probe- and workload-specific code overrides the
// rest afterwards.
func layerMetrics(r *run, sum layerSummary) {
	for _, m := range perLayer {
		r.set(m.name, 0, m.unit)
	}
	r.set("workloads.input_s", sum.self("workloads.input"), "s")
	r.set("compile.compile_s", sum.self("compile.compile"), "s")
	r.set("opt.optimize_s", sum.self("opt.optimize"), "s")
	r.set("vm.record_s", sum.self("vm.record"), "s")
	r.set("corpus.put_s", sum.self("corpus.put"), "s")
	r.set("corpus.load_s", sum.self("corpus.load"), "s")
	r.set("fs.transform_s", sum.self("fs.transform"), "s")
	r.set("fs.eval_s", sum.self("fs.eval"), "s")
	r.set("workloads.input_bytes", float64(r.inputBytes.Load()), "bytes")
	r.set("compile.insts", float64(r.insts.Load()), "count")
	steps := float64(r.steps.Load())
	r.set("vm.steps", steps, "count")
	if steps > 0 {
		r.set("vm.ns_per_step", sum.self("vm.record")*1e9/steps, "ns")
	}
}

// writeTraceFiles writes the Chrome trace-event file and the per-layer
// summary the metrics were read from.
func writeTraceFiles(r *run, sum layerSummary, cross map[string][2]float64, events int) error {
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(r.outDir, fmt.Sprintf("%s-seed%d", r.workload, r.seed))
	meta := fingerprint(r.root)
	meta["workload"], meta["seed"] = r.workload, r.seed
	spans := r.tr.snapshot()
	if err := writeFile(base+"-trace.json", func(w io.Writer) error { return writeChromeTrace(w, spans, meta) }); err != nil {
		return err
	}
	crossJSON := map[string]map[string]float64{}
	for k, v := range cross {
		crossJSON[k] = map[string]float64{"phases_s": v[0], "spans_s": v[1]}
		fmt.Fprintf(os.Stderr, "perfbench: %-12s Eval.Phases %.3f s (untraced passes' mean), spans %.3f s (traced pass)\n", k, v[0], v[1])
	}
	summary := map[string]any{
		"fingerprint":  meta,
		"spans":        len(spans),
		"trace_events": events,
		"layers":       sum,
		"phases_check": crossJSON,
		"metrics":      r.metrics,
	}
	err := writeFile(base+"-layers.json", func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(summary)
	})
	if err == nil {
		fmt.Fprintf(os.Stderr, "perfbench: wrote %s-trace.json (%d spans) and %s-layers.json\n", base, len(spans), base)
	}
	return err
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedDaemon is daemon-upload's traced run: untraced sweeps, for the
// overhead baseline, alternating with the same sweeps traced (a span per
// request), then the in-process probes over every body.
func tracedDaemon(ctx context.Context, r *run, d *daemon, bodies []uploadBody, want []map[string]predict.Stats, sweeps int) error {
	var untraced, traced loopResult
	for s := 0; s < sweeps; s++ {
		untraced.sweep(r, d, bodies, s, false)
		traced.sweep(r, d, bodies, s, true)
	}
	lat, ok := checkReplies(r, bodies, want, untraced)
	tlat, tok := checkReplies(r, bodies, want, traced)

	var traces []probeTrace
	for i, b := range bodies {
		tr, err := tracefile.ReadTrace(bytes.NewReader(b.body))
		if err != nil {
			return err
		}
		traces = append(traces, probeTrace{op: fmt.Sprintf("probe:%s:%d", b.bench, i), tr: tr, body: b.body})
	}
	pr, err := probe(ctx, r, traces, uploadSchemes, true, true)
	if err != nil {
		return err
	}
	// A request's serving overhead: its client latency minus the in-process
	// decode and replay of the same body.
	var over []float64
	for _, reps := range traced.replies {
		for i, rep := range reps {
			over = append(over, float64(rep.latency.Nanoseconds())/1e6-pr.inprocS[i]*1e3)
		}
	}
	p95, err := percentile(lat, 95)
	if err != nil {
		return err
	}
	sum := summarize(r.tr.snapshot())
	layerMetrics(r, sum)
	pr.report(r)
	// Encoding happened in set-up, where the request bodies were built.
	events := 0
	for _, b := range bodies {
		events += b.events
	}
	r.set("tracefile.encode_s", sum.self("tracefile.encode"), "s")
	r.set("serve.overhead_ms", median(over), "ms")
	r.set("serve.admit_ratio", float64(tok)/float64(len(tlat)), "ratio")
	r.set("serve.req_p50_ms", median(lat), "ms")
	r.set("serve.req_p95_ms", p95, "ms")
	ut, tt := untraced.total(), traced.total()
	r.set("runtime.alloc_mb", untraced.allocMB, "MB")
	r.set("runtime.gc_cycles", untraced.gcs, "count")
	r.set("runtime.peak_rss_mb", median(untraced.peaks), "MB")
	r.set("trace.pass_s", median(traced.sweeps), "s")
	r.set("trace.untraced_pass_s", median(untraced.sweeps), "s")
	r.set("trace.overhead_pass_s", median(traced.sweeps)-median(untraced.sweeps), "s")
	r.set("trace.req_per_s", float64(tok)/tt, "1/s")
	r.set("trace.untraced_req_per_s", float64(ok)/ut, "1/s")
	r.set("trace.overhead_req_per_s", float64(tok)/tt-float64(ok)/ut, "1/s")
	return writeTraceFiles(r, sum, nil, events)
}
