package tracefile

// The replay engine: the one loop every scorer of a recorded branch stream
// runs through. Score expands a Trace's packed stream into fixed-size blocks
// of events in a reused buffer, and every BlockSink consumes each whole
// block; a trace file is first loaded whole by ReadTrace. Bookkeeping is per
// block, not per event: the "tracefile.replay.events" counter takes one add
// per block, and the cancellation check and the "tracefile.replay.latency_ns"
// histogram run once per ctxCheckEvery-event chunk, so no atomic and no
// clock read sits on the per-event path. A sink
// Score scores from the trace's event histogram instead (see CountSink)
// still adds the trace's events to the counter, in one add.

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"branchcost/internal/isa"
	"branchcost/internal/telemetry"
	"branchcost/internal/vm"
)

// BlockSink consumes a replayed branch stream one block at a time, in
// recording order. A block is valid only during the call — the engine
// reuses its buffer — and must not be modified. predict.Evaluator is the
// main implementation.
type BlockSink interface {
	ObserveBlock(evs []vm.BranchEvent)
}

// CountSink is a BlockSink that Score may feed the trace's event histogram
// instead of its blocks: when Countable reports true, the sink's result
// depends only on how often each distinct event occurs, not on their order,
// and Score calls ObserveCounts once in place of every ObserveBlock.
// predict.Evaluator implements it for stateless predictors.
type CountSink interface {
	BlockSink
	Countable() bool
	// ObserveCounts takes every distinct event of the trace, evs[i]
	// occurring counts[i] times. Both slices are valid only during the call.
	ObserveCounts(evs []vm.BranchEvent, counts []int64)
}

const (
	// blockLen is the engine's block size: an expanded block (20 bytes per
	// event) stays cache-resident while its sinks consume it, and the
	// per-block bookkeeping and hand-off are noise next to 1024 events of
	// scoring.
	blockLen = 1 << 10

	// ctxCheckEvery is how many replayed events pass between cancellation
	// checks (and latency observations): coarse enough to keep them off the
	// hot path, fine enough that cancellation lands within microseconds.
	ctxCheckEvery = 1 << 16
)

// Score scores the trace into every sink. A CountSink that is Countable
// gets the trace's event histogram, built once for all of them; every other
// sink gets the replay, which runs only when there is one. A trace whose
// indirect jumps reach more than maxJumpTargets distinct targets is
// replayed to every sink instead. Each block is expanded once and fed to
// the replayed sinks on min(GOMAXPROCS, sinks) goroutines, the caller's
// among them, each claiming the next sink not yet fed; the next block
// starts when every sink is done with this one, so a sink is only ever
// touched by one goroutine at a time and needs no locking. When ctx is
// cancelled the histogram or the replay stops within ctxCheckEvery events
// and returns the context's error; the sinks' partial state is then
// meaningless. A sink's panic re-raises on the calling goroutine once every
// goroutine has stopped, so a recover around Score fences it.
func Score[S BlockSink](ctx context.Context, t *Trace, sinks []S) error {
	var counted []CountSink
	replayed := make([]BlockSink, 0, len(sinks))
	for _, s := range sinks {
		if c, ok := any(s).(CountSink); ok && c.Countable() {
			counted = append(counted, c)
		} else {
			replayed = append(replayed, s)
		}
	}
	if len(counted) > 0 {
		evs, counts, err := t.histogram(ctx)
		switch {
		case errors.Is(err, errManyJumpTargets):
			replayed = append(replayed, asSinks(counted)...)
		case err != nil:
			return err
		default:
			for _, c := range counted {
				c.ObserveCounts(evs, counts)
			}
			telemetry.FromContext(ctx).Counter("tracefile.replay.events").Add(int64(t.events * len(counted)))
		}
	}
	if len(replayed) == 0 {
		return ctx.Err()
	}
	return drive(ctx, t, replayed)
}

// maxJumpTargets bounds the distinct (site, target) pairs of indirect jumps
// a histogram tallies. A trace with more may have nearly as many distinct
// events as events, so counting would save little over replay while its
// tally grew with the trace; Score replays it instead.
const maxJumpTargets = 1 << 16

// errManyJumpTargets reports a trace whose indirect jumps exceed
// maxJumpTargets distinct (site, target) pairs.
var errManyJumpTargets = errors.New("tracefile: too many distinct indirect-jump targets to count")

// histogram returns every distinct event of the trace with the number of
// times it occurs: one entry per site and direction recorded, and for an
// indirect jump one per target, in site order (targets ascending). It takes
// time linear in the trace, checks ctx every ctxCheckEvery words, and stops
// with errManyJumpTargets once a chunk of them takes the distinct jump
// targets past maxJumpTargets.
func (t *Trace) histogram(ctx context.Context) ([]vm.BranchEvent, []int64, error) {
	perWord := make([]int64, 2*len(t.sites))
	jumps := map[uint64]int64{} // events per indirect jump's word<<32 | target
	for pos := 0; pos < len(t.stream); {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		for end := min(pos+ctxCheckEvery, len(t.stream)); pos < end; pos++ {
			w := t.stream[pos]
			perWord[w]++
			if t.sites[w>>1].op == isa.JMPI {
				pos++
				jumps[uint64(w)<<32|uint64(t.stream[pos])]++
			}
		}
		if len(jumps) > maxJumpTargets {
			return nil, nil, errManyJumpTargets
		}
	}
	keys := make([]uint64, 0, len(jumps))
	for k := range jumps {
		keys = append(keys, k)
	}
	slices.Sort(keys) // by word, then target
	var evs []vm.BranchEvent
	var counts []int64
	for w, ev := range expansions(t.sites) {
		if perWord[w] == 0 {
			continue
		}
		if ev.Op != isa.JMPI {
			evs, counts = append(evs, ev), append(counts, perWord[w])
			continue
		}
		for ; len(keys) > 0 && keys[0]>>32 == uint64(w); keys = keys[1:] {
			ev.Target = int32(uint32(keys[0]))
			evs, counts = append(evs, ev), append(counts, jumps[keys[0]])
		}
	}
	return evs, counts, nil
}

func asSinks[S BlockSink](sinks []S) []BlockSink {
	out := make([]BlockSink, len(sinks))
	for i, s := range sinks {
		out[i] = s
	}
	return out
}

// hookSink adapts a per-event hook to the engine.
type hookSink vm.BranchFunc

func (h hookSink) ObserveBlock(evs []vm.BranchEvent) {
	for _, ev := range evs {
		h(ev)
	}
}

func hookSinks(hooks []vm.BranchFunc) []hookSink {
	out := make([]hookSink, len(hooks))
	for i, h := range hooks {
		out[i] = hookSink(h)
	}
	return out
}

// drive feeds the trace to every sink a block at a time, expanded into one
// reused buffer: the engine's one replay loop. It checks ctx before the
// first block, so a cancelled context returns its error even for an empty
// trace, and then after every ctxCheckEvery events.
func drive(ctx context.Context, t *Trace, sinks []BlockSink) error {
	set := telemetry.FromContext(ctx)
	events := set.Counter("tracefile.replay.events")
	latency := set.Histogram("tracefile.replay.latency_ns")
	workers := min(runtime.GOMAXPROCS(0), len(sinks))
	table := expansions(t.sites)
	var buf []vm.BranchEvent
	var chunkStart time.Time
	if latency != nil {
		chunkStart = time.Now()
	}
	seen, checked := 0, 0 // events replayed, and as of the last check
	for pos := 0; ; {
		if seen == 0 || seen-checked >= ctxCheckEvery {
			if err := ctx.Err(); err != nil {
				return err
			}
			if latency != nil && seen > 0 {
				now := time.Now()
				latency.Observe(now.Sub(chunkStart).Nanoseconds())
				chunkStart = now
			}
			checked = seen
		}
		if pos == len(t.stream) {
			break
		}
		buf, pos = expand(buf[:0], blockLen, table, t.stream, pos)
		observe(buf, sinks, workers)
		events.Add(int64(len(buf) * len(sinks)))
		seen += len(buf)
	}
	if latency != nil && seen > checked {
		latency.Observe(time.Since(chunkStart).Nanoseconds())
	}
	return nil
}

// observe feeds one block to every sink on workers goroutines, the caller's
// among them, and returns once all are fed. A panic in any sink re-raises
// here after every goroutine has stopped.
func observe(evs []vm.BranchEvent, sinks []BlockSink, workers int) {
	var claimed atomic.Int64
	feed := func() {
		for i := int(claimed.Add(1) - 1); i < len(sinks); i = int(claimed.Add(1) - 1) {
			sinks[i].ObserveBlock(evs)
		}
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		panicked any
	)
	for range workers - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					mu.Lock()
					panicked = p
					mu.Unlock()
				}
			}()
			feed()
		}()
	}
	defer wg.Wait() // a panic in the caller's share also waits for the rest
	feed()
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// expansions returns the event every packed word expands to over sites,
// indexed by the word itself: entry 2i is site i not taken, 2i+1 taken. An
// indirect jump's entry lacks the target, which follows in the stream.
func expansions(sites []traceSite) []vm.BranchEvent {
	dst := make([]vm.BranchEvent, 2*len(sites))
	for i, s := range sites {
		ev := vm.BranchEvent{PC: s.pc, ID: s.id, Op: s.op, Likely: s.likely, Target: s.fallTarget}
		dst[2*i] = ev
		ev.Taken, ev.Target = true, s.takenTarget
		dst[2*i+1] = ev
	}
	return dst
}

// expand decodes up to n events of a packed stream, starting at word pos,
// appending them to dst; it returns the extended slice and the position
// after the last word consumed. It is the one place packed words become
// vm.BranchEvents; table is the sites' expansions.
func expand(dst []vm.BranchEvent, n int, table []vm.BranchEvent, stream []uint32, pos int) ([]vm.BranchEvent, int) {
	n = min(n, len(stream)-pos) // every event takes at least one word
	i := len(dst)
	dst = slices.Grow(dst, n)[:i+n]
	for ; i < len(dst) && pos < len(stream); i++ {
		ev := &table[stream[pos]]
		pos++
		dst[i] = *ev
		if ev.Op == isa.JMPI {
			dst[i].Target = int32(stream[pos])
			pos++
		}
	}
	return dst[:i], pos
}
