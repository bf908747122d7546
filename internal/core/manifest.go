package core

import (
	"encoding/json"
	"io"
	"runtime"
	"time"

	"branchcost/internal/attr"
	"branchcost/internal/predict"
	"branchcost/internal/telemetry"
)

// PhaseTiming is one completed pipeline phase of an evaluation (profile,
// record, corpus.load, corpus.store, fs.transform, replay) with its
// wall-clock duration.
type PhaseTiming struct {
	Name       string `json:"name"`
	DurationNS int64  `json:"duration_ns"`
}

// DegradeEvent is one failure an evaluation survived instead of aborting on:
// Phase names the pipeline phase it struck ("corpus.load", "corpus.store"),
// Kind the response ("quarantine", "healed", "store_failed",
// "quarantine_failed"), and Detail the underlying error text. The manifest
// carries these so a run's provenance shows exactly what was quarantined,
// healed, or skipped.
type DegradeEvent struct {
	Phase  string `json:"phase"`
	Kind   string `json:"kind"`
	Detail string `json:"detail,omitempty"`
}

// ManifestConfig is the fully resolved hardware/transform configuration an
// evaluation ran with — no nil-means-default fields, so two manifests compare
// byte-for-byte when their runs were configured identically.
type ManifestConfig struct {
	EvalSlots  int      `json:"eval_slots"`
	FlushEvery int64    `json:"flush_every,omitempty"`
	Schemes    []string `json:"schemes"`

	// SchemeConfigs is each scored scheme's fully resolved configuration
	// (predict.DescribeOptions rendering), for schemes that have one.
	SchemeConfigs map[string]string `json:"scheme_configs,omitempty"`
}

// ManifestScheme is one scheme's scores in a run manifest.
type ManifestScheme struct {
	Accuracy     float64          `json:"accuracy"`
	CondAccuracy float64          `json:"cond_accuracy"`
	MissRatio    float64          `json:"miss_ratio"`
	Branches     int64            `json:"branches"`
	Correct      int64            `json:"correct"`
	Hits         int64            `json:"hits"`
	Misses       int64            `json:"misses"`
	Extra        map[string]int64 `json:"extra,omitempty"`
}

// Manifest is the machine-readable record of one evaluation: what ran
// (benchmark, resolved config), where its data came from (corpus key, live VM
// runs), how long each phase took, and what every scheme scored. CLI tools
// write it via their -metrics flag; make bench-json aggregates them.
type Manifest struct {
	Benchmark   string                    `json:"benchmark"`
	GoVersion   string                    `json:"go_version"`
	CreatedAt   time.Time                 `json:"created_at"`
	Config      ManifestConfig            `json:"config"`
	CorpusKey   string                    `json:"corpus_key,omitempty"`
	FromCorpus  bool                      `json:"from_corpus"`
	VMRuns      int64                     `json:"vm_runs"`
	WallNS      int64                     `json:"wall_ns"`
	TraceEvents int64                     `json:"trace_events"`
	TraceSteps  int64                     `json:"trace_steps"`
	TraceRuns   int64                     `json:"trace_runs"`
	AnalyticFS  float64                   `json:"analytic_fs"`
	Order       []string                  `json:"order"`
	Schemes     map[string]ManifestScheme `json:"schemes"`
	Phases      []PhaseTiming             `json:"phases,omitempty"`
	Degraded    []DegradeEvent            `json:"degraded,omitempty"`

	// Attribution maps scheme name to its per-site/per-window mispredict
	// summary; present only when the evaluation ran with Config.Attribution.
	Attribution map[string]*attr.Summary `json:"attribution,omitempty"`

	// Telemetry is the counter/gauge/span snapshot of the set the evaluation
	// ran under. Note the set may be shared by several evaluations (a suite
	// run), in which case the totals span all of them.
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
}

// Manifest builds the run manifest for a completed evaluation.
func (e *Eval) Manifest() *Manifest {
	cfg := e.cfg
	m := &Manifest{
		Benchmark: e.Name,
		GoVersion: runtime.Version(),
		CreatedAt: time.Now().UTC(),
		Config: ManifestConfig{
			EvalSlots: *cfg.EvalSlots, FlushEvery: cfg.FlushEvery,
			Schemes: e.Order,
		},
		CorpusKey:  e.CorpusKey,
		FromCorpus: e.FromCorpus,
		VMRuns:     e.VMRuns,
		WallNS:     e.WallNS,
		AnalyticFS: e.AnalyticFS,
		Order:      e.Order,
		Schemes:    make(map[string]ManifestScheme, len(e.Schemes)),
		Phases:     e.Phases,
		Degraded:   e.Degraded,
	}
	for _, name := range e.Order {
		if resolved := cfg.SchemeConfigs.Resolved(name); resolved != nil {
			if m.Config.SchemeConfigs == nil {
				m.Config.SchemeConfigs = make(map[string]string)
			}
			m.Config.SchemeConfigs[name] = predict.DescribeOptions(resolved)
		}
	}
	if e.Trace != nil {
		m.TraceEvents = int64(e.Trace.Len())
		m.TraceSteps = int64(e.Trace.Steps)
		m.TraceRuns = int64(e.Trace.Runs)
	}
	for name, r := range e.Schemes {
		m.Schemes[name] = ManifestScheme{
			Accuracy:     r.Stats.Accuracy(),
			CondAccuracy: r.Stats.CondAccuracy(),
			MissRatio:    r.Stats.MissRatio(),
			Branches:     r.Stats.Branches,
			Correct:      r.Stats.Correct,
			Hits:         r.Stats.Hits,
			Misses:       r.Stats.Misses,
			Extra:        r.Extra,
		}
	}
	m.Attribution = e.Attr
	if e.telem != nil {
		snap := e.telem.Snapshot()
		m.Telemetry = &snap
	}
	return m
}

// WriteJSON writes the manifest as indented JSON.
func (m *Manifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
