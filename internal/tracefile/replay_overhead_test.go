package tracefile

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"branchcost/internal/isa"
	"branchcost/internal/telemetry"
	"branchcost/internal/vm"
)

// syntheticTrace builds an in-memory trace of n events over a handful of
// sites, for replay benchmarks that must not depend on the compiler.
func syntheticTrace(n int) *Trace {
	t := &Trace{}
	for i := 0; i < n; i++ {
		pc := int32(10 + i%8)
		taken := i%3 != 0
		target := pc + 1
		if taken {
			target = pc + 40
		}
		t.Record(vm.BranchEvent{PC: pc, ID: pc, Op: isa.BEQ, Taken: taken, Target: target})
	}
	return t
}

// countSink counts the events it is fed.
type countSink struct{ n int }

func (c *countSink) ObserveBlock(evs []vm.BranchEvent) { c.n += len(evs) }

// TestReplayEventCounter checks the engine's telemetry contract from both
// sources and at several sink counts: every sink sees every event, and the
// per-block counter adds up to exactly events × sinks.
func TestReplayEventCounter(t *testing.T) {
	tr := syntheticTrace(10_000)
	var enc bytes.Buffer
	if _, err := tr.WriteTo(&enc); err != nil {
		t.Fatal(err)
	}
	sources := map[string]func(context.Context, []*countSink) error{
		"trace": func(ctx context.Context, sinks []*countSink) error { return Score(ctx, tr, sinks) },
		"bct2": func(ctx context.Context, sinks []*countSink) error {
			d, err := NewBCT2Reader(bytes.NewReader(enc.Bytes()))
			if err != nil {
				return err
			}
			return drive(ctx, &cursor{d: d}, asSinks(sinks))
		},
	}
	for name, score := range sources {
		for _, n := range []int{1, 3, 8} {
			set := telemetry.New()
			sinks := make([]*countSink, n)
			for i := range sinks {
				sinks[i] = &countSink{}
			}
			if err := score(telemetry.NewContext(context.Background(), set), sinks); err != nil {
				t.Fatalf("%s, %d sinks: %v", name, n, err)
			}
			for i, s := range sinks {
				if s.n != tr.Len() {
					t.Fatalf("%s: sink %d of %d saw %d events, trace has %d", name, i, n, s.n, tr.Len())
				}
			}
			if got, want := set.Counter("tracefile.replay.events").Value(), int64(n*tr.Len()); got != want {
				t.Fatalf("%s, %d sinks: replay.events = %d, want %d", name, n, got, want)
			}
		}
	}
}

// The pair below measures the cost the telemetry layer adds to the replay
// hot loop. With no Set in the context the per-block counter is nil and the
// delta between these two benchmarks is the (enabled) telemetry cost; the
// disabled path is asserted ≤2ns/op by TestDisabledCounterOverhead in
// internal/telemetry.

func benchmarkReplay(b *testing.B, ctx context.Context) {
	tr := syntheticTrace(1 << 16)
	hook := func(vm.BranchEvent) {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.ScoreParallelContext(ctx, hook); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tr.Len()), "ns/event")
}

func BenchmarkReplayTelemetryDisabled(b *testing.B) {
	benchmarkReplay(b, context.Background())
}

func BenchmarkReplayTelemetryEnabled(b *testing.B) {
	benchmarkReplay(b, telemetry.NewContext(context.Background(), telemetry.New()))
}

// The pair below replays in the daemon's shape: two requests in flight,
// each fanning eight hooks over the replay workers, every one of them
// counting into the same "tracefile.replay.events" counter when a Set is
// attached. The delta between the two is the counter's contended cost.

func benchmarkContendedReplay(b *testing.B, ctx context.Context) {
	const requests, hooksPer = 2, 8
	tr := syntheticTrace(1 << 16)
	hooks := make([]vm.BranchFunc, hooksPer)
	for i := range hooks {
		hooks[i] = func(vm.BranchEvent) {}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for range requests {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := tr.ScoreParallelContext(ctx, hooks...); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tr.Len()*requests*hooksPer), "ns/event/hook")
}

func BenchmarkContendedReplayTelemetryDisabled(b *testing.B) {
	benchmarkContendedReplay(b, context.Background())
}

func BenchmarkContendedReplayTelemetryEnabled(b *testing.B) {
	benchmarkContendedReplay(b, telemetry.NewContext(context.Background(), telemetry.New()))
}
