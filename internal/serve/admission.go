package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"branchcost/internal/corpus"
	"branchcost/internal/experiments"
)

// APIError is the wire shape of every error the daemon returns: a stable
// machine-readable code, a human message, and — for evaluation failures —
// the benchmark, failing phase and attempt count from the suite's
// BenchError. RetryAfter (also sent as a Retry-After header) is advice for
// rate-limited and transiently-failed requests.
type APIError struct {
	Code       string `json:"code"`
	Message    string `json:"message"`
	Benchmark  string `json:"benchmark,omitempty"`
	Phase      string `json:"phase,omitempty"`
	Attempts   int    `json:"attempts,omitempty"`
	RetryAfter int    `json:"retry_after_seconds,omitempty"`

	status int
}

func (e *APIError) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

func apiErr(status int, code, format string, args ...any) *APIError {
	return &APIError{Code: code, Message: fmt.Sprintf(format, args...), status: status}
}

// writeError emits a structured JSON error response. The response always
// carries the code, so clients branch on it rather than parsing messages.
func (s *Server) writeError(w http.ResponseWriter, e *APIError) {
	s.set.Counter("serve.errors." + e.Code).Inc()
	if e.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfter))
	}
	writeJSON(w, e.status, map[string]any{"error": e})
}

// evalError maps an evaluation failure to its API error. The suite's
// BenchError carries phase and attempts; the cause chain decides the code
// and status.
func evalError(err error) *APIError {
	var be *experiments.BenchError
	e := &APIError{status: http.StatusInternalServerError, Code: "eval_failed", Message: err.Error()}
	if errors.As(err, &be) {
		e.Benchmark, e.Phase, e.Attempts = be.Benchmark, be.Phase, be.Attempts
	}
	switch {
	case errors.Is(err, experiments.ErrEvalPanic):
		e.Code = "panic"
	case errors.Is(err, context.DeadlineExceeded):
		e.status, e.Code = http.StatusGatewayTimeout, "deadline"
	case errors.Is(err, context.Canceled):
		e.status, e.Code = 499, "cancelled" // nginx's client-closed-request
	case corpus.IsTransient(err):
		e.status, e.Code, e.RetryAfter = http.StatusServiceUnavailable, "corpus_transient", 1
	case corpus.IsCorrupt(err):
		e.Code = "corpus_corrupt"
	case be != nil && be.Phase == "lookup":
		e.status, e.Code = http.StatusNotFound, "unknown_benchmark"
	}
	return e
}

// admit runs the full admission pipeline for an evaluation request:
// rate limit, drain check, then a free in-flight slot if there is one,
// else the queue bound and a wait for a slot. On success it returns a
// release func the handler must call when the evaluation finishes; on
// rejection it returns the typed error to send.
func (s *Server) admit(r *http.Request) (release func(), aerr *APIError) {
	if !s.lim.allow(clientKey(r)) {
		s.set.Counter("serve.rejected_rate").Inc()
		e := apiErr(http.StatusTooManyRequests, "rate_limited",
			"client exceeded %g requests/sec (burst %d)", s.cfg.RatePerSec, s.cfg.Burst)
		e.RetryAfter = 1
		return nil, e
	}

	// Drain check and queue accounting are one critical section, so a drain
	// that begins here either sees this request in flight or rejects it —
	// never loses it.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.set.Counter("serve.rejected_draining").Inc()
		return nil, apiErr(http.StatusServiceUnavailable, "draining", "server is draining")
	}
	// A free slot is taken at once, so only a request that has to wait
	// counts against MaxQueue. A waiting sender is handed the next freed
	// slot before any later arrival can take it, so this never jumps the
	// queue.
	select {
	case s.slots <- struct{}{}:
		s.inflight.Add(1)
		s.mu.Unlock()
		return s.holdSlot(), nil
	default:
	}
	if s.queued >= int64(s.cfg.MaxQueue) {
		s.mu.Unlock()
		s.set.Counter("serve.rejected_queue").Inc()
		e := apiErr(http.StatusServiceUnavailable, "overloaded",
			"admission queue full (%d waiting, %d in flight)", s.queued, len(s.slots))
		e.RetryAfter = 2
		return nil, e
	}
	s.queued++
	s.inflight.Add(1)
	s.mu.Unlock()
	s.set.Gauge("serve.queue_depth").Set(s.queuedNow())

	leaveQueue := func() {
		s.mu.Lock()
		s.queued--
		s.mu.Unlock()
		s.set.Gauge("serve.queue_depth").Set(s.queuedNow())
	}

	select {
	case s.slots <- struct{}{}:
		leaveQueue()
		return s.holdSlot(), nil
	case <-s.drainCh:
		leaveQueue()
		s.inflight.Done()
		s.set.Counter("serve.rejected_draining").Inc()
		return nil, apiErr(http.StatusServiceUnavailable, "draining", "server is draining")
	case <-r.Context().Done():
		leaveQueue()
		s.inflight.Done()
		return nil, apiErr(499, "cancelled", "client went away while queued")
	}
}

// holdSlot records an in-flight slot just taken and returns the func that
// gives it back.
func (s *Server) holdSlot() func() {
	s.set.Gauge("serve.inflight").Set(int64(len(s.slots)))
	s.set.Gauge("serve.inflight_peak").RecordMax(int64(len(s.slots)))
	var once sync.Once
	return func() {
		once.Do(func() {
			<-s.slots
			s.set.Gauge("serve.inflight").Set(int64(len(s.slots)))
			s.inflight.Done()
		})
	}
}

func (s *Server) queuedNow() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}

// clientKey identifies the client for rate limiting: an explicit API token
// when the request carries one (X-API-Token or Authorization: Bearer),
// otherwise the remote address without the ephemeral port.
func clientKey(r *http.Request) string {
	if tok := r.Header.Get("X-API-Token"); tok != "" {
		return "token:" + tok
	}
	if auth := r.Header.Get("Authorization"); auth != "" {
		if tok, ok := strings.CutPrefix(auth, "Bearer "); ok && tok != "" {
			return "token:" + tok
		}
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	return "addr:" + host
}

// limiterPool hands out one token bucket per client key. Buckets refill at
// rate tokens/sec up to burst; a request spends one token. Idle buckets are
// pruned once the pool grows past a high-water mark, so an open-ended
// stream of distinct clients cannot grow memory without bound.
type limiterPool struct {
	rate  float64
	burst float64

	mu      sync.Mutex
	buckets map[string]*bucket
	now     func() time.Time // injectable for tests
}

type bucket struct {
	tokens float64
	last   time.Time
}

// pruneAbove bounds the pool: when exceeded, buckets idle long enough to
// have fully refilled (indistinguishable from fresh ones) are dropped.
const pruneAbove = 4096

func newLimiterPool(rate float64, burst int) *limiterPool {
	return &limiterPool{
		rate:    rate,
		burst:   float64(burst),
		buckets: map[string]*bucket{},
		now:     time.Now,
	}
}

// allow reports whether the keyed client may proceed, spending a token if
// so. A pool with no configured rate admits everything.
func (p *limiterPool) allow(key string) bool {
	if p.rate <= 0 {
		return true
	}
	now := p.now()
	p.mu.Lock()
	defer p.mu.Unlock()
	b, ok := p.buckets[key]
	if !ok {
		if len(p.buckets) >= pruneAbove {
			p.prune(now)
		}
		b = &bucket{tokens: p.burst, last: now}
		p.buckets[key] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * p.rate
	if b.tokens > p.burst {
		b.tokens = p.burst
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

func (p *limiterPool) prune(now time.Time) {
	refill := time.Duration(float64(time.Second) * p.burst / p.rate)
	for k, b := range p.buckets {
		if now.Sub(b.last) > refill {
			delete(p.buckets, k)
		}
	}
}
