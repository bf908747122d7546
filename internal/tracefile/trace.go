// Package tracefile records and replays branch traces — the methodology of
// the paper's era, when prediction studies ran from tape-archived address
// traces rather than live execution. A trace file captures the exact branch
// stream one program run produces; replaying it through
// internal/predict.Evaluator reproduces any scheme's accuracy bit for bit,
// without re-executing the program.
//
// Trace files have one encoding, the block-structured compressed BCT2 (see
// bct2.go), used for standalone files and the on-disk corpus alike. A file
// has one way in, ReadTrace, which loads it whole (any other stream fails
// with ErrBadMagic), and one way to be scored, Score over the loaded Trace.
// Trace.WriteTo encodes a recorded trace straight from its packed words;
// BCT2Writer.Record, one event at a time, is the reference encoding WriteTo
// must match byte for byte.
package tracefile

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"

	"branchcost/internal/isa"
	"branchcost/internal/pcindex"
	"branchcost/internal/telemetry"
	"branchcost/internal/vm"
)

// Trace is an in-memory branch trace: record a program's counted-branch
// stream once, replay it through any number of predictors without
// re-executing the program. This is the paper-era methodology made explicit
// — every scheme scores the identical recorded stream.
//
// The representation is compact so whole-suite traces stay cheap to cache:
// per static branch site, the fields the VM emits identically every time
// (PC, ID, opcode, likely bit, and the two possible next positions) live in
// a side table; the dynamic stream is one uint32 per event — site index plus
// taken bit — with indirect jumps (the only branches whose target varies at
// run time) spending a second word on the target. A replayed event is
// bit-identical to the recorded vm.BranchEvent at ~4 bytes per event.
// Recording finds an event's site through a pcindex.Index, so it pays a
// bounds check per event instead of a map lookup, and WriteTo encodes BCT2 from the packed words without rebuilding an
// event.
//
// A Trace records the stream of exactly one program; mixing programs would
// alias PCs across different instructions.
type Trace struct {
	sites  []traceSite
	bySite pcindex.Index // PC -> index into sites
	stream []uint32
	events int

	Steps int64 // dynamic instructions across the recorded runs
	Runs  int   // recorded runs
}

// traceSite holds the static fields of one branch site. takenTarget and
// fallTarget are the resolved next positions for the two outcomes (filled
// lazily from the first event of each direction; a direction never recorded
// is never replayed, so its slot stays unused).
type traceSite struct {
	pc, id      int32
	takenTarget int32
	fallTarget  int32
	op          isa.Op
	likely      bool
}

// Len returns the number of recorded branch events.
func (t *Trace) Len() int { return t.events }

// Sites returns the number of distinct static branch sites recorded.
func (t *Trace) Sites() int { return len(t.sites) }

// Record appends one counted-branch event. It panics if ev contradicts what
// the trace already holds for its PC — a second static identity, or a new
// target for a direction of a direct branch — since such a stream could not
// replay bit-identically. The VM never emits one; ReadTrace rejects one in a
// file with a located error instead.
func (t *Trace) Record(ev vm.BranchEvent) {
	if err := t.add(ev); err != nil {
		panic(err) // kept bare so Record inlines into the recording hook
	}
}

// add is Record returning the contradiction as an error.
func (t *Trace) add(ev vm.BranchEvent) error {
	idx, ok := t.bySite.Get(ev.PC)
	if !ok {
		idx = uint32(len(t.sites))
		t.sites = append(t.sites, newSite(ev))
		t.bySite.Put(ev.PC, idx)
	}
	if _, ok := t.sites[idx].admit(ev); !ok {
		return t.sites[idx].conflict(ev)
	}
	w := idx << 1
	if ev.Taken {
		w |= 1
	}
	t.stream = append(t.stream, w)
	if ev.Op == isa.JMPI {
		// Indirect-jump targets are dynamic (jump table): store per event.
		t.stream = append(t.stream, uint32(ev.Target))
	}
	t.events++
	return nil
}

// newSite is the site ev is the first event of; neither target is known.
func newSite(ev vm.BranchEvent) traceSite {
	return traceSite{
		pc: ev.PC, id: ev.ID, op: ev.Op, likely: ev.Likely,
		takenTarget: -1, fallTarget: -1,
	}
}

// admit checks ev against the site's static identity and, for a direct
// branch, against the target already seen in ev's direction, learning it
// the first time. fresh reports whether ev's target was not yet known —
// always, for an indirect jump, whose target is per-event data. When ok is
// false, conflict says what ev contradicts. admit runs for every recorded
// and encoded event, so it stays small enough to inline.
func (s *traceSite) admit(ev vm.BranchEvent) (fresh, ok bool) {
	if ev.Op != s.op || ev.ID != s.id || ev.Likely != s.likely || ev.Target < 0 {
		return false, false
	}
	if s.op == isa.JMPI {
		return true, true
	}
	slot := &s.fallTarget
	if ev.Taken {
		slot = &s.takenTarget
	}
	if *slot == -1 {
		*slot = ev.Target
		return true, true
	}
	return false, *slot == ev.Target
}

// conflict describes how ev, refused by admit, contradicts the site.
func (s *traceSite) conflict(ev vm.BranchEvent) error {
	switch {
	case ev.Op != s.op || ev.ID != s.id || ev.Likely != s.likely:
		return fmt.Errorf("pc %d is %v (id %d, likely %v) but an event has %v (id %d, likely %v)",
			s.pc, s.op, s.id, s.likely, ev.Op, ev.ID, ev.Likely)
	case ev.Target < 0:
		return fmt.Errorf("pc %d: negative target %d", s.pc, ev.Target)
	case ev.Taken:
		return fmt.Errorf("pc %d: taken target changes from %d to %d", s.pc, s.takenTarget, ev.Target)
	}
	return fmt.Errorf("pc %d: fall-through target changes from %d to %d", s.pc, s.fallTarget, ev.Target)
}

// Hook returns a vm.BranchFunc recording every counted branch (CALL events
// pass through unrecorded, matching the evaluator's view).
func (t *Trace) Hook() vm.BranchFunc {
	return func(ev vm.BranchEvent) {
		if !ev.Op.IsBranch() {
			return
		}
		t.Record(ev)
	}
}

// Replay feeds every recorded event to hook, in recording order,
// reconstructing each vm.BranchEvent exactly as the VM emitted it.
func (t *Trace) Replay(hook vm.BranchFunc) {
	// One sink means one inline worker, and a background context never
	// cancels, so the error is structurally nil.
	_ = Score(context.Background(), t, []hookSink{hookSink(hook)})
}

// Walk replays the trace over p, the program it was recorded from, and
// emits every position the recorded runs executed, in order (see vm.Walk).
// A trace that does not fit p fails with the walk's vm.ErrWalk error.
func (t *Trace) Walk(p *isa.Program, emit vm.RunFunc) error {
	w := vm.NewWalk(p, t.Steps, t.Runs)
	t.Replay(func(ev vm.BranchEvent) { w.Event(ev, emit) }) // the first error sticks
	return w.Finish(emit)
}

// ScoreParallelContext replays the trace once through every hook, in
// parallel (see Score). The trace is read-only during replay, so hooks only
// need their own state to be private (each predictor evaluator is). When
// ctx is cancelled mid-replay the workers stop within ctxCheckEvery events
// and the context's error is returned; the hooks' partial state is then
// meaningless.
func (t *Trace) ScoreParallelContext(ctx context.Context, hooks ...vm.BranchFunc) error {
	return Score(ctx, t, hookSinks(hooks))
}

// Record executes the program over the input suite and returns its recorded
// trace. Additional hooks observe the same passes' raw event stream (CALL
// events included), letting a profiler share the recording pass.
func Record(p *isa.Program, inputs [][]byte, extra ...vm.BranchFunc) (*Trace, error) {
	return RecordConfig(context.Background(), p, inputs, vm.Config{}, extra...)
}

// RecordConfig is Record under a context and explicit VM limits: ctx is
// polled inside each run (so a deadline kills a hung recording mid-pass) and
// cfg carries the step budget a watchdogged recording runs under.
func RecordConfig(ctx context.Context, p *isa.Program, inputs [][]byte, cfg vm.Config, extra ...vm.BranchFunc) (*Trace, error) {
	t := &Trace{}
	rec := t.Hook()
	hook := rec
	if len(extra) > 0 {
		hook = func(ev vm.BranchEvent) {
			rec(ev)
			for _, h := range extra {
				h(ev)
			}
		}
	}
	cfg.Ctx = ctx
	for i, in := range inputs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := vm.Run(p, in, hook, cfg)
		if err != nil {
			return nil, fmt.Errorf("tracefile: recording run %d: %w", i, err)
		}
		t.Steps += res.Steps
		t.Runs++
	}
	return t, nil
}

// countingWriter tracks bytes written, for the io.WriterTo contract.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// WriteTo serializes the trace in the BCT2 format. It implements
// io.WriterTo; no seeking is needed, so any io.Writer works. The blocks are
// encoded straight from the packed words and the site table, and are byte
// for byte what BCT2Writer.Record writes for the replayed events.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	tw, err := NewBCT2Writer(cw)
	if err != nil {
		return cw.n, err
	}
	tw.Steps, tw.Runs = t.Steps, t.Runs
	tw.encode(t)
	return cw.n, tw.Close()
}

// ReadTrace loads a serialized BCT2 trace stream into an in-memory trace.
// Any other stream fails with ErrBadMagic.
func ReadTrace(r io.Reader) (*Trace, error) {
	return ReadTraceContext(context.Background(), r)
}

// ReadTraceContext is ReadTrace with telemetry: when ctx carries a Set,
// "tracefile.read.bct2" counts the stream and the per-block decode counters
// are recorded. The stream loads without building a single event: the
// trace adopts the decoder's site dictionary, and its packed stream is the
// decoder's words. Each block decodes into a reused buffer and is kept at
// its exact length, and the blocks are joined once at the end, so a load
// allocates about 8 bytes per event and keeps 4; appending every block to
// one growing stream would copy the stream again at each growth. The input
// must end at the trailer.
func ReadTraceContext(ctx context.Context, r io.Reader) (*Trace, error) {
	set := telemetry.FromContext(ctx)
	d, err := newBCT2Reader(r)
	if err != nil {
		return nil, err
	}
	set.Counter("tracefile.read.bct2").Inc()
	d.instrument(set)
	var blocks [][]uint32
	var buf []uint32
	n := 0
	for {
		words, err := d.nextWords(buf[:0])
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		buf = words
		blocks = append(blocks, slices.Clone(words))
		n += len(words)
	}
	// One plain make, not slices.Concat: race-instrumented builds do not
	// elide the temporary that Concat's Grow allocates, doubling the join.
	t := &Trace{sites: d.sites, bySite: d.bySite, stream: make([]uint32, 0, n), events: int(d.events),
		Steps: d.steps, Runs: d.runs}
	for _, b := range blocks {
		t.stream = append(t.stream, b...)
	}
	return t, nil
}
