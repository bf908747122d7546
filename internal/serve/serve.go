// Package serve is the evaluation daemon: experiments.Suite promoted from a
// one-shot CLI scheduler into a long-running HTTP service (cmd/branchcostd)
// that accepts concurrent evaluation requests — a benchmark name or an
// uploaded BCT2 trace — and streams per-scheme scores and the run
// manifest back as newline-delimited JSON.
//
// Robustness is the package's contract, not a garnish:
//
//   - Admission control: a bounded wait queue in front of a bounded
//     in-flight pool. Requests past the queue limit are rejected immediately
//     with a typed 503 rather than piling onto the scheduler; per-client
//     token buckets turn one chatty client into its own 429s instead of
//     everyone's latency.
//   - Lifecycle: /healthz answers as long as the process lives; /readyz
//     turns 200 only after the corpus warm-check completes and turns 503
//     the moment a drain begins. Drain (SIGTERM in the daemon) stops
//     admitting evaluations, waits for in-flight ones, and gives up at a
//     hard deadline.
//   - Failure typing: every error response is structured JSON with a stable
//     machine-readable code. A panicking evaluation becomes a 500 with code
//     "panic" (and a quarantined corpus entry, via the suite) — never a
//     dead process.
//   - Corpus hygiene: the store the suite evaluates through can carry a
//     byte budget (corpus LRU eviction), so a daemon serving an open-ended
//     stream of uploads does not grow its disk without bound.
//
// The chaos availability gate (`make chaos-serve`) boots this server over a
// fault-injecting filesystem under concurrent load and asserts exactly
// those properties.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"branchcost/internal/core"
	"branchcost/internal/experiments"
	"branchcost/internal/predict"
	"branchcost/internal/profile"
	"branchcost/internal/telemetry"
	"branchcost/internal/workloads"
)

// Config configures a Server. The zero value is usable: paper-configuration
// evaluations, GOMAXPROCS in-flight slots, a small wait queue, no rate
// limiting, no corpus (pure live evaluation).
type Config struct {
	// Core is the evaluation configuration every request runs under
	// (geometry, schemes, corpus, telemetry, step budgets).
	Core core.Config

	// Workers, Deadline, Retries, RetryBackoff and RetrySeed configure the
	// underlying experiments.Suite scheduler (see its fields). Deadline
	// defaults to 0 (unbounded) — daemons should set it.
	Workers      int
	Deadline     time.Duration
	Retries      int
	RetryBackoff time.Duration
	RetrySeed    int64

	// MaxInFlight bounds concurrently executing evaluation requests;
	// 0 means GOMAXPROCS.
	MaxInFlight int

	// MaxQueue bounds requests waiting for an in-flight slot; one more is
	// rejected with 503 "overloaded". 0 means 2×MaxInFlight.
	MaxQueue int

	// RatePerSec and Burst configure per-client token-bucket rate limiting
	// (keyed by API token when the request carries one, else by remote
	// address). RatePerSec 0 disables rate limiting; Burst 0 means
	// max(1, ceil(RatePerSec)).
	RatePerSec float64
	Burst      int

	// MaxUploadBytes bounds the size of an uploaded trace body; larger
	// uploads are rejected with 413. 0 means 64 MiB.
	MaxUploadBytes int64

	// CorpusBudget, when positive and Core.Corpus is set, applies a byte
	// budget to the store (LRU eviction; see corpus.SetBudget).
	CorpusBudget int64

	// WarmBenchmarks lists the benchmarks the readiness warm-check records
	// or loads before /readyz reports ready. Nil means every registered
	// benchmark; an explicit empty slice skips warming (ready immediately).
	WarmBenchmarks []string

	// DrainTimeout is the hard deadline a Drain waits for in-flight
	// evaluations before giving up; 0 means 10s.
	DrainTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 2 * c.MaxInFlight
	}
	if c.RatePerSec > 0 && c.Burst <= 0 {
		c.Burst = int(c.RatePerSec) + 1
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 64 << 20
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	return c
}

// Server is the evaluation daemon's HTTP surface. Construct with New; it
// implements http.Handler, so callers mount it on any listener (the daemon
// uses net/http.Server, tests use httptest).
type Server struct {
	cfg   Config
	suite *experiments.Suite
	set   *telemetry.Set
	mux   *http.ServeMux
	lim   *limiterPool
	start time.Time

	slots chan struct{} // in-flight tokens

	mu       sync.Mutex
	queued   int64
	draining bool
	drainCh  chan struct{} // closed when a drain begins
	inflight sync.WaitGroup

	readyMu  sync.Mutex
	ready    bool
	warmNote string // human-readable warm state for /readyz bodies
}

// New builds a server over a fresh suite. The suite's telemetry set is the
// one in cfg.Core.Telemetry, created if absent, so /metrics always has a
// live set to export.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	if cfg.Core.Telemetry == nil {
		cfg.Core.Telemetry = telemetry.New()
	}
	if cfg.Core.Corpus != nil && cfg.CorpusBudget > 0 {
		cfg.Core.Corpus.SetBudget(cfg.CorpusBudget)
	}
	suite := experiments.NewSuite(cfg.Core)
	suite.Workers = cfg.Workers
	suite.Deadline = cfg.Deadline
	suite.Retries = cfg.Retries
	suite.RetryBackoff = cfg.RetryBackoff
	suite.RetrySeed = cfg.RetrySeed
	s := &Server{
		cfg:      cfg,
		suite:    suite,
		set:      cfg.Core.Telemetry,
		lim:      newLimiterPool(cfg.RatePerSec, cfg.Burst),
		start:    time.Now(),
		slots:    make(chan struct{}, cfg.MaxInFlight),
		drainCh:  make(chan struct{}),
		warmNote: "warm-check pending",
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /eval", s.handleEval)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /failures", s.handleFailures)
	mux.HandleFunc("GET /schemes", s.handleSchemes)
	mux.HandleFunc("GET /benchmarks", s.handleBenchmarks)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", telemetry.OpenMetricsContentType)
		s.set.WriteOpenMetrics(w)
	})
	s.mux = mux
	return s
}

// Suite exposes the underlying scheduler (tests pre-warm or inspect it).
func (s *Server) Suite() *experiments.Suite { return s.suite }

// Telemetry returns the set the server reports into.
func (s *Server) Telemetry() *telemetry.Set { return s.set }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.set.Counter("serve.requests").Inc()
	s.mux.ServeHTTP(w, r)
}

// WarmCheck records-or-loads the configured warm benchmarks through the
// suite and, on completion, marks the server ready. Partial warm failures
// (a benchmark that cannot record) do not block readiness — they are
// reported by /failures and each will fail individually when requested —
// but a warm pass that completes nothing leaves the server unready and
// returns the joined error. The daemon runs this in the background while
// the listener is already accepting /healthz.
func (s *Server) WarmCheck(ctx context.Context) error {
	names := s.cfg.WarmBenchmarks
	if names == nil {
		// The default warm set is the full registry: the paper's twelve and
		// the modern workload classes the daemon also serves.
		for _, b := range workloads.Everything() {
			names = append(names, b.Name)
		}
	}
	if len(names) == 0 {
		s.setReady(true, "ready (no warm benchmarks configured)")
		return nil
	}
	s.setReady(false, fmt.Sprintf("warming %d benchmarks", len(names)))
	p := s.suite.EvalNamesPartial(ctx, names)
	if len(p.Complete()) == 0 {
		err := p.Err()
		if err == nil {
			err = ctx.Err()
		}
		s.setReady(false, fmt.Sprintf("warm-check failed: %v", err))
		return fmt.Errorf("serve: warm-check completed nothing: %w", err)
	}
	s.setReady(true, fmt.Sprintf("ready (%d/%d benchmarks warm)", len(p.Complete()), len(names)))
	telemetry.Logger(ctx).Info("serve: warm-check complete",
		"warm", len(p.Complete()), "requested", len(names), "failures", len(p.Errors))
	return nil
}

func (s *Server) setReady(ready bool, note string) {
	s.readyMu.Lock()
	s.ready, s.warmNote = ready, note
	s.readyMu.Unlock()
}

// Ready reports whether the warm-check has completed.
func (s *Server) Ready() bool {
	s.readyMu.Lock()
	defer s.readyMu.Unlock()
	return s.ready
}

// Draining reports whether a drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain stops admitting evaluation requests (they get 503 "draining",
// /readyz turns 503) and waits for in-flight ones to finish, up to the
// configured DrainTimeout or ctx, whichever ends first. It returns nil on a
// clean drain and an error when the deadline fired with work still running
// — the caller decides whether that is exit-nonzero (the daemon says yes).
// Drain is idempotent; late callers wait on the same drain.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.drainCh)
	}
	s.mu.Unlock()
	s.setReady(false, "draining")

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	t := time.NewTimer(s.cfg.DrainTimeout)
	defer t.Stop()
	select {
	case <-done:
		telemetry.Logger(ctx).Info("serve: drained cleanly")
		return nil
	case <-t.C:
		return fmt.Errorf("serve: drain deadline %v exceeded with requests in flight", s.cfg.DrainTimeout)
	case <-ctx.Done():
		return fmt.Errorf("serve: drain aborted: %w", ctx.Err())
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"uptime_ns": time.Since(s.start).Nanoseconds(),
		"draining":  s.Draining(),
	})
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.readyMu.Lock()
	ready, note := s.ready, s.warmNote
	s.readyMu.Unlock()
	status := http.StatusOK
	state := "ready"
	if s.Draining() {
		status, state = http.StatusServiceUnavailable, "draining"
	} else if !ready {
		status, state = http.StatusServiceUnavailable, "warming"
	}
	writeJSON(w, status, map[string]any{"status": state, "detail": note})
}

// handleFailures exposes the suite's structured failure records: every
// benchmark whose most recent evaluation failed, with phase and attempts.
func (s *Server) handleFailures(w http.ResponseWriter, _ *http.Request) {
	fails := s.suite.Failures()
	if fails == nil {
		fails = []*experiments.BenchError{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"failures": fails})
}

// handleSchemes lists the registered schemes with their default
// configurations — the daemon's service catalog.
func (s *Server) handleSchemes(w http.ResponseWriter, _ *http.Request) {
	type schemeInfo struct {
		Name        string `json:"name"`
		Description string `json:"description,omitempty"`
		Transformed bool   `json:"transformed"`
		Replayable  bool   `json:"replayable"` // scoreable from a bare uploaded trace
		Defaults    string `json:"defaults,omitempty"`
	}
	var out []schemeInfo
	for _, name := range predict.SortedNames() {
		sc, _ := predict.Lookup(name)
		info := schemeInfo{
			Name:        name,
			Description: sc.Description,
			Transformed: sc.Transformed,
			Replayable:  !sc.Transformed && !sc.NeedsContext,
		}
		if sc.Defaults != nil {
			info.Defaults = predict.DescribeOptions(sc.Defaults())
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, map[string]any{"schemes": out})
}

// handleBenchmarks lists the benchmark registry — the paper's suite and the
// modern workload classes — with each benchmark's declared fingerprint
// contract, so clients can discover what /eval accepts and what branch
// behaviour each name stands for.
func (s *Server) handleBenchmarks(w http.ResponseWriter, _ *http.Request) {
	type benchInfo struct {
		Name        string               `json:"name"`
		Class       string               `json:"class,omitempty"` // empty: the paper's 1989 suite
		Description string               `json:"description,omitempty"`
		Runs        int                  `json:"runs"`
		Fingerprint *profile.Fingerprint `json:"fingerprint,omitempty"`
	}
	var out []benchInfo
	for _, b := range workloads.Everything() {
		out = append(out, benchInfo{
			Name:        b.Name,
			Class:       b.Class,
			Description: b.Description,
			Runs:        b.Runs,
			Fingerprint: b.Fingerprint,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"benchmarks": out})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
