package core_test

import (
	"os"
	"path/filepath"
	"testing"

	"branchcost/internal/core"
	"branchcost/internal/corpus"
	"branchcost/internal/faultfs"
	"branchcost/internal/telemetry"
	"branchcost/internal/workloads"
)

// TestCorpusSelfHealing is the end-to-end self-healing acceptance test: a
// warm corpus entry is corrupted on disk, and the next evaluation must (a)
// quarantine it (counter increments, evidence preserved), (b) heal by live
// re-recording so subsequent loads hit again, and (c) score every scheme
// bit-identically to a clean-corpus run.
func TestCorpusSelfHealing(t *testing.T) {
	dir := t.TempDir()
	store, err := corpus.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Corpus: store}
	b, err := workloads.ByName("wc")
	if err != nil {
		t.Fatal(err)
	}
	nIn := int64(len(b.Inputs()))

	evalWith(t, "wc", cfg)                     // cold: populates the corpus
	clean, cleanRuns := evalWith(t, "wc", cfg) // warm, clean: the reference run
	if !clean.FromCorpus || cleanRuns != 0 {
		t.Fatalf("clean warm run: FromCorpus=%v runs=%d, want true/0", clean.FromCorpus, cleanRuns)
	}

	// Damage the stored trace mid-file: the block CRC must catch it.
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	k := corpus.KeyFor("wc", prog, b.Inputs())
	path := store.TracePath(k)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}

	set := telemetry.New()
	healCfg := cfg
	healCfg.Telemetry = set
	healed, healedRuns := evalWith(t, "wc", healCfg)

	// (a) Quarantined: counter fired, evidence moved aside.
	snap := set.Snapshot().Counters
	if snap["corpus.quarantines"] != 1 {
		t.Fatalf("corpus.quarantines = %d, want 1 (snapshot %v)", snap["corpus.quarantines"], snap)
	}
	if snap["corpus.invalidations"] != 1 || snap["core.heals"] != 1 {
		t.Fatalf("invalidations=%d heals=%d, want 1/1", snap["corpus.invalidations"], snap["core.heals"])
	}
	ents, err := os.ReadDir(filepath.Join(dir, corpus.QuarantineDirName))
	if err != nil || len(ents) == 0 {
		t.Fatalf("no quarantined evidence on disk (err %v)", err)
	}

	// The healing run re-recorded live: full cold cost, not a corpus hit.
	if healed.FromCorpus {
		t.Fatal("healing run claims a corpus hit")
	}
	if healedRuns != nIn {
		t.Fatalf("healing run cost %d VM runs, want %d (the re-record)", healedRuns, nIn)
	}

	// The degradation is in the manifest, machine-readable.
	m := healed.Manifest()
	kinds := map[string]bool{}
	for _, d := range m.Degraded {
		kinds[d.Kind] = true
	}
	if !kinds["quarantine"] || !kinds["healed"] {
		t.Fatalf("manifest degradation events %+v lack quarantine/healed", m.Degraded)
	}

	// (c) Bit-identical scores against the clean run.
	for _, name := range healed.Order {
		if healed.Schemes[name].Stats != clean.Schemes[name].Stats {
			t.Fatalf("%s: healed stats differ from clean:\nhealed %+v\nclean  %+v",
				name, healed.Schemes[name].Stats, clean.Schemes[name].Stats)
		}
	}
	if healed.Summary != clean.Summary || healed.AnalyticFS != clean.AnalyticFS {
		t.Fatal("healed profile-derived figures differ from clean run")
	}

	// (b) The re-stored entry serves subsequent loads.
	again, againRuns := evalWith(t, "wc", cfg)
	if !again.FromCorpus || againRuns != 0 {
		t.Fatalf("post-heal run: FromCorpus=%v runs=%d, want true/0", again.FromCorpus, againRuns)
	}
}

// TestCorpusTransientLoadPropagates: a transient I/O failure on the warm
// path must abort the evaluation (for the scheduler to retry) rather than
// silently re-record over a possibly-good entry.
func TestCorpusTransientLoadPropagates(t *testing.T) {
	dir := t.TempDir()
	clean, err := corpus.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	evalWith(t, "wc", core.Config{Corpus: clean}) // populate

	inj := faultfs.NewInjector(nil, faultfs.Plan{FailOpenAt: 1, EveryOpen: true, PathContains: "wc-"})
	store, err := corpus.OpenFS(dir, inj)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workloads.ByName("wc")
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.EvaluateBenchmark(b, core.Config{Corpus: store})
	if !corpus.IsTransient(err) {
		t.Fatalf("transient corpus failure surfaced as %v, want transient", err)
	}
	// The entry is untouched: the clean store still serves it.
	e, err := core.EvaluateBenchmark(b, core.Config{Corpus: clean})
	if err != nil || !e.FromCorpus {
		t.Fatalf("entry lost after transient failure: err=%v FromCorpus=%v", err, e.FromCorpus)
	}
}
