package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"branchcost/internal/core"
	"branchcost/internal/corpus"
	"branchcost/internal/telemetry"
	"branchcost/internal/workloads"
)

// The paper's resolved BTB configurations, as the manifest renders them.
const (
	paperSBTB = "assoc=256 entries=256"
	paperCBTB = "assoc=256 bits=2 entries=256 threshold=2"
)

// TestManifestWarmCorpus is the acceptance scenario: a warm-corpus run with
// only replayed schemes must produce a manifest showing zero VM runs, the
// corpus key, per-phase timings, and per-scheme hit/miss counters in the
// telemetry snapshot — and the whole document must survive a JSON round-trip.
func TestManifestWarmCorpus(t *testing.T) {
	store, err := corpus.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	set := telemetry.New()
	ctx := telemetry.NewContext(context.Background(), set)
	cfg := core.Config{Corpus: store, Schemes: []string{"sbtb", "cbtb"}}
	b, err := workloads.ByName("cmp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.EvaluateBenchmarkContext(ctx, b, cfg); err != nil {
		t.Fatal(err) // cold: populates the corpus
	}
	warm, err := core.EvaluateBenchmarkContext(ctx, b, cfg)
	if err != nil {
		t.Fatal(err)
	}

	m := warm.Manifest()
	if !m.FromCorpus {
		t.Fatal("warm manifest not flagged FromCorpus")
	}
	if m.VMRuns != 0 {
		t.Fatalf("warm manifest reports %d VM runs, want 0", m.VMRuns)
	}
	if m.CorpusKey == "" {
		t.Fatal("manifest lacks the corpus key")
	}
	if len(m.Phases) == 0 {
		t.Fatal("manifest has no phase timings")
	}
	phases := map[string]bool{}
	for _, p := range m.Phases {
		if p.DurationNS < 0 {
			t.Fatalf("phase %s has negative duration", p.Name)
		}
		phases[p.Name] = true
	}
	for _, want := range []string{"corpus.load", "replay"} {
		if !phases[want] {
			t.Errorf("warm manifest lacks phase %q (has %v)", want, phases)
		}
	}
	if m.Config.SchemeConfigs["sbtb"] != paperSBTB || m.Config.SchemeConfigs["cbtb"] != paperCBTB {
		t.Fatalf("manifest config not resolved to paper defaults: %+v", m.Config)
	}
	for _, name := range []string{"sbtb", "cbtb"} {
		ms, ok := m.Schemes[name]
		if !ok {
			t.Fatalf("manifest lacks scheme %s", name)
		}
		if ms.Branches == 0 || ms.Accuracy <= 0 || ms.Accuracy > 1 {
			t.Fatalf("%s: implausible manifest scores %+v", name, ms)
		}
		if ms.Extra["inserts"] == 0 {
			t.Fatalf("%s: buffer metrics missing from manifest: %+v", name, ms.Extra)
		}
		if m.Telemetry.Counters["scheme."+name+".hits"]+
			m.Telemetry.Counters["scheme."+name+".misses"] == 0 {
			t.Fatalf("%s: hit/miss counters missing from snapshot", name)
		}
	}
	if m.TraceEvents == 0 {
		t.Fatal("manifest lacks trace totals")
	}

	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back core.Manifest
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("manifest JSON does not round-trip: %v", err)
	}
	if back.Benchmark != m.Benchmark || back.VMRuns != m.VMRuns ||
		back.Schemes["sbtb"].Accuracy != m.Schemes["sbtb"].Accuracy ||
		len(back.Phases) != len(m.Phases) {
		t.Fatal("manifest JSON round-trip lost fields")
	}
}

// TestManifestJSONRoundTrip: the manifest is the run's durable record, so
// *every* field — resolved config, per-scheme counters including the Extra
// maps, phase timings, telemetry snapshot — must survive encode/decode
// exactly, not just the handful the warm-corpus test spot-checks.
func TestManifestJSONRoundTrip(t *testing.T) {
	store, err := corpus.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	set := telemetry.New()
	ctx := telemetry.NewContext(context.Background(), set)
	b, err := workloads.ByName("wc")
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.EvaluateBenchmarkContext(ctx, b, core.Config{
		Corpus:  store,
		Schemes: []string{"sbtb", "cbtb", "always-not-taken", "fs"},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := e.Manifest()

	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back core.Manifest
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("manifest JSON does not decode: %v", err)
	}

	// The resolved config must come back whole: this is what makes two runs
	// comparable, so a lost field here silently invalidates comparisons.
	if !reflect.DeepEqual(back.Config, m.Config) {
		t.Fatalf("config lost in round-trip:\nwrote %+v\nread  %+v", m.Config, back.Config)
	}
	if back.Config.EvalSlots != 2 || back.Config.SchemeConfigs["sbtb"] != paperSBTB ||
		back.Config.SchemeConfigs["cbtb"] != paperCBTB {
		t.Fatalf("decoded config not the resolved paper defaults: %+v", back.Config)
	}
	// Per-scheme counters, ratios and the Extra metric maps.
	if !reflect.DeepEqual(back.Schemes, m.Schemes) {
		t.Fatalf("scheme scores lost in round-trip:\nwrote %+v\nread  %+v", m.Schemes, back.Schemes)
	}
	for _, name := range []string{"sbtb", "cbtb"} {
		if back.Schemes[name].Extra["inserts"] == 0 {
			t.Fatalf("%s: Extra counters did not survive: %+v", name, back.Schemes[name])
		}
	}
	if !back.CreatedAt.Equal(m.CreatedAt) {
		t.Fatalf("timestamp drifted: wrote %v, read %v", m.CreatedAt, back.CreatedAt)
	}
	// Everything else, structurally. The timestamps were just compared by
	// instant; zero them so DeepEqual doesn't re-litigate representation.
	m.CreatedAt, back.CreatedAt = time.Time{}, time.Time{}
	if !reflect.DeepEqual(&back, m) {
		t.Fatalf("manifest round-trip not lossless:\nwrote %+v\nread  %+v", m, &back)
	}
}

// TestManifestLiveRun: a corpus-free evaluation records its VM runs and the
// profile phase.
func TestManifestLiveRun(t *testing.T) {
	b, err := workloads.ByName("cmp")
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.EvaluateBenchmark(b, core.Config{Schemes: []string{"sbtb"}})
	if err != nil {
		t.Fatal(err)
	}
	m := e.Manifest()
	if m.FromCorpus || m.CorpusKey != "" {
		t.Fatalf("live manifest claims corpus provenance: %+v", m)
	}
	if want := int64(len(b.Inputs())); m.VMRuns != want {
		t.Fatalf("live manifest reports %d VM runs, want %d", m.VMRuns, want)
	}
	if m.Telemetry != nil {
		t.Fatal("manifest carries a telemetry snapshot without a set")
	}
	if m.WallNS <= 0 {
		t.Fatal("manifest lacks wall time")
	}
}
