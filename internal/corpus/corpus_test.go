package corpus_test

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"strings"
	"testing"

	"branchcost/internal/corpus"
	"branchcost/internal/telemetry"
	"branchcost/internal/workloads"
)

func open(t *testing.T) *corpus.Store {
	t.Helper()
	s, err := corpus.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// keyFor computes one benchmark's run-0 entry key.
func keyFor(t *testing.T, name string) corpus.Key {
	t.Helper()
	b, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	return corpus.KeyFor(name, prog, [][]byte{b.Input(0)})
}

func TestPutLoadRoundTrip(t *testing.T) {
	s := open(t)
	b, err := workloads.ByName("wc")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	inputs := [][]byte{b.Input(0)}
	tr, prof, err := corpus.Record(prog, inputs)
	if err != nil {
		t.Fatal(err)
	}
	k := corpus.KeyFor("wc", prog, inputs)
	if s.Has(k) {
		t.Fatal("empty store claims the entry")
	}
	if err := s.Put(k, tr, prof); err != nil {
		t.Fatal(err)
	}
	if !s.Has(k) {
		t.Fatal("store lost the entry it just wrote")
	}
	got, gotProf, err := s.Load(k)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() || got.Steps != tr.Steps || got.Runs != tr.Runs {
		t.Fatalf("trace round-trip: %d/%d events, %d/%d steps, %d/%d runs",
			got.Len(), tr.Len(), got.Steps, tr.Steps, got.Runs, tr.Runs)
	}
	if gotProf.Steps != prof.Steps || len(gotProf.Branches) != len(prof.Branches) {
		t.Fatalf("profile round-trip: %d/%d steps, %d/%d branch sites",
			gotProf.Steps, prof.Steps, len(gotProf.Branches), len(prof.Branches))
	}

	keys, err := s.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != k {
		t.Fatalf("Keys() = %v, want [%v]", keys, k)
	}
}

// TestKeySensitivity: the content hash must move when the inputs or the
// program move, and must be stable across recomputation.
func TestKeySensitivity(t *testing.T) {
	b, err := workloads.ByName("wc")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	in := [][]byte{b.Input(0)}
	k := corpus.KeyFor("wc", prog, in)
	if k2 := corpus.KeyFor("wc", prog, in); k2 != k {
		t.Fatalf("key not deterministic: %v vs %v", k, k2)
	}
	if k2 := corpus.KeyFor("wc", prog, [][]byte{append([]byte{'x'}, b.Input(0)...)}); k2.Hash == k.Hash {
		t.Fatal("input change did not move the key")
	}
	// Mutate one instruction field and expect a different hash.
	progCopy := *prog
	progCopy.Code = append(progCopy.Code[:0:0], prog.Code...)
	progCopy.Code[0].Imm++
	if k2 := corpus.KeyFor("wc", &progCopy, in); k2.Hash == k.Hash {
		t.Fatal("program change did not move the key")
	}
	if k2 := corpus.KeyFor("other", prog, in); k2.Hash == k.Hash {
		t.Fatal("name change did not move the key")
	}
}

func TestMissAndCorruptEntry(t *testing.T) {
	s := open(t)
	k := keyFor(t, "wc")
	_, _, err := s.Load(k)
	if err == nil || !corpus.IsMiss(err) || !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("miss: %v, want fs.ErrNotExist in chain", err)
	}

	// A damaged entry must surface the located decode error, not a miss.
	if err := os.WriteFile(s.TracePath(k), []byte("BCT2\x01garbage"), 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.ProfilePath(k), []byte("{}"), 0o666); err != nil {
		t.Fatal(err)
	}
	_, _, err = s.Load(k)
	if err == nil || corpus.IsMiss(err) {
		t.Fatalf("corrupt entry: %v, want a non-miss decode error", err)
	}
	if !strings.Contains(err.Error(), "wc") {
		t.Fatalf("corrupt-entry error lacks the benchmark name: %v", err)
	}
}

// TestLoadTelemetryCounters: hits, misses, invalidations, and store counts
// must land in the context's telemetry set.
func TestLoadTelemetryCounters(t *testing.T) {
	s := open(t)
	set := telemetry.New()
	ctx := telemetry.NewContext(context.Background(), set)
	b, err := workloads.ByName("wc")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	inputs := [][]byte{b.Input(0)}
	k := corpus.KeyFor("wc", prog, inputs)

	if _, _, err := s.LoadContext(ctx, k); !corpus.IsMiss(err) {
		t.Fatalf("cold load: %v, want miss", err)
	}
	tr, prof, err := corpus.Record(prog, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutContext(ctx, k, tr, prof); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.LoadContext(ctx, k); err != nil {
		t.Fatal(err)
	}
	// Damage the trace so the next load counts as an invalidation.
	if err := os.WriteFile(s.TracePath(k), []byte("BCT2\x01garbage"), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.LoadContext(ctx, k); err == nil || corpus.IsMiss(err) {
		t.Fatalf("damaged load: %v, want non-miss error", err)
	}

	snap := set.Snapshot().Counters
	for name, want := range map[string]int64{
		"corpus.hits": 1, "corpus.misses": 1,
		"corpus.invalidations": 1, "corpus.stores": 1,
	} {
		if snap[name] != want {
			t.Errorf("%s = %d, want %d (snapshot %v)", name, snap[name], want, snap)
		}
	}
	if snap["corpus.load_ns"] <= 0 || snap["corpus.store_ns"] <= 0 {
		t.Errorf("latency counters missing: %v", snap)
	}
}

func TestFromEnv(t *testing.T) {
	t.Setenv(corpus.EnvVar, "")
	s, err := corpus.FromEnv()
	if s != nil || err != nil {
		t.Fatalf("unset env: (%v, %v), want (nil, nil)", s, err)
	}
	dir := t.TempDir()
	t.Setenv(corpus.EnvVar, dir)
	s, err = corpus.FromEnv()
	if err != nil || s.Dir() != dir {
		t.Fatalf("set env: (%v, %v)", s, err)
	}
}
