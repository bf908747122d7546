package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"branchcost/internal/experiments"
	"branchcost/internal/predict"
	"branchcost/internal/telemetry"
	"branchcost/internal/tracefile"
	"branchcost/internal/workloads"
)

// schemeLine is one scheme's scores on the NDJSON stream.
type schemeLine struct {
	Kind         string           `json:"kind"` // "scheme"
	Scheme       string           `json:"scheme"`
	Accuracy     float64          `json:"accuracy"`
	CondAccuracy float64          `json:"cond_accuracy"`
	MissRatio    float64          `json:"miss_ratio"`
	Branches     int64            `json:"branches"`
	Correct      int64            `json:"correct"`
	Hits         int64            `json:"hits"`
	Misses       int64            `json:"misses"`
	Extra        map[string]int64 `json:"extra,omitempty"`
}

func schemeLineOf(name string, st predict.Stats, extra map[string]int64) schemeLine {
	return schemeLine{
		Kind:         "scheme",
		Scheme:       name,
		Accuracy:     st.Accuracy(),
		CondAccuracy: st.CondAccuracy(),
		MissRatio:    st.MissRatio(),
		Branches:     st.Branches,
		Correct:      st.Correct,
		Hits:         st.Hits,
		Misses:       st.Misses,
		Extra:        extra,
	}
}

// handleEval serves POST /eval. Two request shapes:
//
//	POST /eval?benchmark=wc          — evaluate a registered benchmark
//	POST /eval?schemes=always,sbtb   — replay an uploaded BCT2 trace
//	  (request body; Content-Type application/octet-stream)
//
// The response is NDJSON: one "scheme" line per scored scheme, then (for
// benchmark evaluations) a "manifest" line, then a terminal "done" line.
// Every failure before the stream starts is a structured JSON error with a
// stable code.
func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	release, aerr := s.admit(r)
	if aerr != nil {
		s.writeError(w, aerr)
		return
	}
	defer release()

	name := r.URL.Query().Get("benchmark")
	if name == "" {
		s.handleEvalUpload(w, r)
		return
	}
	// Pre-flight the lookup so an unknown name is a fast 404, not a queued
	// evaluation that fails in a worker. Suites with an injected Lookup
	// (tests, synthetic workloads) resolve through the suite instead.
	if s.suite.Lookup == nil {
		if _, err := workloads.ByName(name); err != nil {
			s.writeError(w, apiErr(http.StatusNotFound, "unknown_benchmark", "%v", err))
			return
		}
	}

	ctx := telemetry.NewContext(r.Context(), s.set)
	e, err := s.suite.EvalContext(ctx, name)
	if err != nil {
		s.set.Counter("serve.evals_failed").Inc()
		s.writeError(w, evalError(s.benchFailure(name, err)))
		return
	}
	s.set.Counter("serve.evals_ok").Inc()
	st := newStream(w)
	for _, sn := range e.Order {
		res := e.Schemes[sn]
		st.send(schemeLineOf(sn, res.Stats, res.Extra))
	}
	st.send(map[string]any{"kind": "manifest", "manifest": e.Manifest()})
	st.done(e.Name, len(e.Order))
}

// benchFailure rehydrates the structured BenchError for a failed benchmark:
// EvalContext returns the bare cause, while the phase/attempts record lives
// in the suite's failure map. Falls back to classifying the cause directly
// when a concurrent success already superseded the record.
func (s *Server) benchFailure(name string, err error) error {
	var be *experiments.BenchError
	if errors.As(err, &be) {
		return err
	}
	for _, f := range s.suite.Failures() {
		if f.Benchmark == name && errors.Is(err, f.Err) {
			return f
		}
	}
	return &experiments.BenchError{
		Benchmark: name, Phase: experiments.ClassifyPhase(err), Attempts: 1, Err: err,
	}
}

// handleEvalUpload scores an uploaded trace. Only context-free schemes can
// replay a bare trace (no program, no profile); requesting a Transformed or
// NeedsContext scheme is a 400 naming the offender. The default scheme set
// is every replayable registered scheme.
func (s *Server) handleEvalUpload(w http.ResponseWriter, r *http.Request) {
	names, aerr := uploadSchemes(r.URL.Query().Get("schemes"))
	if aerr != nil {
		s.writeError(w, aerr)
		return
	}

	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	ctx := telemetry.NewContext(r.Context(), s.set)
	tr, err := tracefile.ReadTraceContext(ctx, body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeError(w, apiErr(http.StatusRequestEntityTooLarge, "upload_too_large",
				"trace exceeds the %d-byte upload limit", s.cfg.MaxUploadBytes))
			return
		}
		s.writeError(w, apiErr(http.StatusBadRequest, "bad_trace", "reading trace: %v", err))
		return
	}

	stats, err := s.replayTrace(ctx, tr, names)
	if err != nil {
		s.set.Counter("serve.evals_failed").Inc()
		s.writeError(w, evalError(err))
		return
	}
	s.set.Counter("serve.evals_ok").Inc()
	out := newStream(w)
	for _, sn := range names {
		out.send(schemeLineOf(sn, stats[sn], nil))
	}
	out.done("upload", len(names))
}

// replayTrace scores the trace under every named scheme in one parallel
// replay pass. A panicking predictor on a hostile trace becomes
// ErrEvalPanic — this request's 500, not the daemon's obituary: the engine
// re-raises a replay worker's panic here, inside the fence.
func (s *Server) replayTrace(ctx context.Context, tr *tracefile.Trace, names []string) (stats map[string]predict.Stats, err error) {
	defer func() {
		if r := recover(); r != nil {
			stats, err = nil, fmt.Errorf("%w: %v", experiments.ErrEvalPanic, r)
			s.set.Counter("serve.panics").Inc()
			telemetry.Logger(ctx).Error("serve: trace replay panicked", "panic", fmt.Sprint(r))
		}
	}()
	sctx := predict.SchemeContext{Configs: s.cfg.Core.SchemeConfigs}
	evals := make([]*predict.Evaluator, len(names))
	for i, n := range names {
		sc, _ := predict.Lookup(n)
		evals[i] = &predict.Evaluator{P: sc.New(sctx)}
	}
	if err := tracefile.Score(ctx, tr, evals); err != nil {
		return nil, err
	}
	stats = make(map[string]predict.Stats, len(names))
	for i, n := range names {
		stats[n] = evals[i].S
	}
	return stats, nil
}

func uploadSchemes(q string) ([]string, *APIError) {
	if q == "" {
		var names []string
		for _, n := range predict.SortedNames() {
			sc, _ := predict.Lookup(n)
			if !sc.Transformed && !sc.NeedsContext {
				names = append(names, n)
			}
		}
		return names, nil
	}
	var names []string
	for _, n := range strings.Split(q, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		sc, ok := predict.Lookup(n)
		if !ok {
			return nil, apiErr(http.StatusBadRequest, "unknown_scheme",
				"unknown scheme %q (registered: %s)", n, strings.Join(predict.SortedNames(), ", "))
		}
		if sc.Transformed || sc.NeedsContext {
			return nil, apiErr(http.StatusBadRequest, "scheme_needs_context",
				"scheme %q needs program context and cannot replay a bare uploaded trace", n)
		}
		names = append(names, n)
	}
	if len(names) == 0 {
		return nil, apiErr(http.StatusBadRequest, "unknown_scheme", "no schemes requested")
	}
	return names, nil
}

// stream writes NDJSON lines, flushing after each so clients see scores as
// they land rather than after the whole evaluation.
type stream struct {
	w   http.ResponseWriter
	enc *json.Encoder
	f   http.Flusher
}

func newStream(w http.ResponseWriter) *stream {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	f, _ := w.(http.Flusher)
	return &stream{w: w, enc: json.NewEncoder(w), f: f}
}

func (st *stream) send(v any) {
	st.enc.Encode(v)
	if st.f != nil {
		st.f.Flush()
	}
}

func (st *stream) done(name string, schemes int) {
	st.send(map[string]any{"kind": "done", "name": name, "schemes": schemes})
}
