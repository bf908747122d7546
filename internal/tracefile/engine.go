package tracefile

// The replay engine: the one loop every scorer of a recorded branch stream
// runs through. A cursor expands the packed stream — an in-memory Trace's,
// or a BCT2 stream's a decoded block at a time — into fixed-size blocks of
// events in a reused buffer, and every BlockSink consumes each whole block.
// Bookkeeping is per block, not per event: the "tracefile.replay.events"
// counter takes one add per block, and the cancellation check and the
// "tracefile.replay.latency_ns" histogram run once per ctxCheckEvery-event
// chunk, so no atomic and no clock read sits on the per-event path.

import (
	"context"
	"errors"
	"io"
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

// Score replays the trace through every sink. Each block is expanded once
// and fed to the sinks on min(GOMAXPROCS, len(sinks)) goroutines, the
// caller's among them, each claiming the next sink not yet fed; the next
// block starts when every sink is done with this one, so a sink is only
// ever touched by one goroutine at a time and needs no locking. When ctx is
// cancelled the replay stops within ctxCheckEvery events and returns the
// context's error; the sinks' partial state is then meaningless. A sink's
// panic re-raises on the calling goroutine once every goroutine has
// stopped, so a recover around Score fences it.
func Score[S BlockSink](ctx context.Context, t *Trace, sinks []S) error {
	return drive(ctx, &cursor{table: expansions(nil, t.sites), stream: t.stream}, asSinks(sinks))
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

// drive feeds every block cur yields to every sink: the engine's one replay
// loop.
func drive(ctx context.Context, cur *cursor, sinks []BlockSink) error {
	set := telemetry.FromContext(ctx)
	events := set.Counter("tracefile.replay.events")
	latency := set.Histogram("tracefile.replay.latency_ns")
	workers := min(runtime.GOMAXPROCS(0), len(sinks))
	var chunkStart time.Time
	if latency != nil {
		chunkStart = time.Now()
	}
	seen, checked := 0, 0 // events replayed, and as of the last check
	for {
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
		evs, err := cur.next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		observe(evs, sinks, workers)
		events.Add(int64(len(evs) * len(sinks)))
		seen += len(evs)
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

// cursor expands a packed stream (see Trace) block by block. Reading a BCT2
// stream, it refills the packed words a decoded block at a time.
type cursor struct {
	table  []vm.BranchEvent // expansions of the stream's sites
	stream []uint32
	pos    int
	buf    []vm.BranchEvent
	d      *BCT2Reader // nil for an in-memory trace
}

func (c *cursor) next() ([]vm.BranchEvent, error) {
	for c.pos >= len(c.stream) {
		if c.d == nil {
			return nil, io.EOF
		}
		words, err := c.d.nextWords(c.stream[:0])
		if err != nil {
			return nil, err
		}
		// A block may add sites and learn targets: refresh the expansions.
		c.stream, c.pos, c.table = words, 0, expansions(c.table, c.d.sites)
	}
	c.buf, c.pos = expand(c.buf[:0], blockLen, c.table, c.stream, c.pos)
	return c.buf, nil
}

// expansions returns the event every packed word expands to over sites,
// indexed by the word itself: entry 2i is site i not taken, 2i+1 taken. An
// indirect jump's entry lacks the target, which follows in the stream.
func expansions(dst []vm.BranchEvent, sites []traceSite) []vm.BranchEvent {
	dst = slices.Grow(dst[:0], 2*len(sites))[:2*len(sites)]
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
// vm.BranchEvents, for in-memory traces and BCT2 blocks alike; table is
// the sites' expansions.
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
