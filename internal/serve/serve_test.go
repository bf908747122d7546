package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"branchcost/internal/core"
	"branchcost/internal/corpus"
	"branchcost/internal/isa"
	"branchcost/internal/predict"
	"branchcost/internal/serve"
	"branchcost/internal/telemetry"
	"branchcost/internal/tracefile"
	"branchcost/internal/workloads"
)

// testServer builds a server over a temp corpus with a small scheme set.
func testServer(t *testing.T, mut func(*serve.Config)) *serve.Server {
	t.Helper()
	store, err := corpus.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := serve.Config{
		Core: core.Config{
			Corpus:    store,
			Schemes:   []string{"sbtb", "cbtb"},
			Telemetry: telemetry.New(),
		},
		Workers:      2,
		Deadline:     30 * time.Second,
		DrainTimeout: 5 * time.Second,
	}
	if mut != nil {
		mut(&cfg)
	}
	return serve.New(cfg)
}

// do runs one request through the handler and returns the recorded response.
func do(s *serve.Server, r *http.Request) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	return w
}

// decodeError pulls the structured error out of a JSON error response.
func decodeError(t *testing.T, w *httptest.ResponseRecorder) serve.APIError {
	t.Helper()
	var body struct {
		Error serve.APIError `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatalf("error response is not structured JSON: %v (body %q)", err, w.Body.String())
	}
	if body.Error.Code == "" {
		t.Fatalf("error response has no code: %q", w.Body.String())
	}
	return body.Error
}

// ndjsonLines splits an NDJSON body into decoded maps.
func ndjsonLines(t *testing.T, body *bytes.Buffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		out = append(out, m)
	}
	return out
}

// blockingLookup returns a Lookup whose benchmarks stall inside input
// generation until gate closes — an in-flight evaluation the test controls.
func blockingLookup(gate <-chan struct{}) func(string) (*workloads.Benchmark, error) {
	return func(name string) (*workloads.Benchmark, error) {
		if strings.HasPrefix(name, "slow") {
			return &workloads.Benchmark{
				Name:    name,
				Runs:    1,
				Sources: []string{"func main() { return 0; }"},
				Input: func(int) []byte {
					<-gate
					return nil
				},
			}, nil
		}
		return workloads.ByName(name)
	}
}

// TestServeSmoke is the in-process end-to-end pass: warm, ready, evaluate a
// benchmark, stream scheme scores + manifest, export metrics.
func TestServeSmoke(t *testing.T) {
	s := testServer(t, func(c *serve.Config) { c.WarmBenchmarks = []string{"wc"} })

	// Unwarmed server: healthy but not ready.
	if w := do(s, httptest.NewRequest("GET", "/healthz", nil)); w.Code != http.StatusOK {
		t.Fatalf("/healthz before warm = %d, want 200", w.Code)
	}
	if w := do(s, httptest.NewRequest("GET", "/readyz", nil)); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before warm = %d, want 503", w.Code)
	}
	if err := s.WarmCheck(context.Background()); err != nil {
		t.Fatal(err)
	}
	if w := do(s, httptest.NewRequest("GET", "/readyz", nil)); w.Code != http.StatusOK {
		t.Fatalf("/readyz after warm = %d, want 200 (body %s)", w.Code, w.Body)
	}

	w := do(s, httptest.NewRequest("POST", "/eval?benchmark=wc", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/eval = %d, body %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("/eval Content-Type = %q", ct)
	}
	lines := ndjsonLines(t, w.Body)
	kinds := map[string]int{}
	for _, m := range lines {
		kinds[m["kind"].(string)]++
	}
	if kinds["scheme"] != 2 || kinds["manifest"] != 1 || kinds["done"] != 1 {
		t.Fatalf("stream shape %v, want 2 scheme + 1 manifest + 1 done", kinds)
	}
	for _, m := range lines {
		if m["kind"] != "scheme" {
			continue
		}
		if acc := m["accuracy"].(float64); acc <= 0 || acc > 1 {
			t.Fatalf("scheme %v accuracy %v out of (0,1]", m["scheme"], acc)
		}
		if m["branches"].(float64) == 0 {
			t.Fatalf("scheme %v scored zero branches", m["scheme"])
		}
	}

	// GET on /eval is a method mismatch, not a panic or a silent 200.
	if w := do(s, httptest.NewRequest("GET", "/eval?benchmark=wc", nil)); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /eval = %d, want 405", w.Code)
	}

	w = do(s, httptest.NewRequest("GET", "/metrics", nil))
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "serve_evals_ok") {
		t.Fatalf("/metrics = %d, missing serve_evals_ok (body %.200s)", w.Code, w.Body)
	}
	w = do(s, httptest.NewRequest("GET", "/schemes", nil))
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "sbtb") {
		t.Fatalf("/schemes = %d, body %.200s", w.Code, w.Body)
	}
	w = do(s, httptest.NewRequest("GET", "/failures", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/failures = %d", w.Code)
	}
}

// TestServeUnknownBenchmark: a name the registry has never heard of is a
// typed 404 before any evaluation work is queued.
func TestServeUnknownBenchmark(t *testing.T) {
	s := testServer(t, nil)
	w := do(s, httptest.NewRequest("POST", "/eval?benchmark=no-such", nil))
	if w.Code != http.StatusNotFound {
		t.Fatalf("unknown benchmark = %d, want 404", w.Code)
	}
	if e := decodeError(t, w); e.Code != "unknown_benchmark" {
		t.Fatalf("error code %q, want unknown_benchmark", e.Code)
	}
}

// TestServeAdmissionOverload: with one in-flight slot and a one-deep queue,
// two evaluations sent at once are both admitted, one running and one
// waiting, and a third is rejected immediately with a typed 503 — not
// blocked behind the others.
func TestServeAdmissionOverload(t *testing.T) {
	gate := make(chan struct{})
	var open sync.Once
	release := func() { open.Do(func() { close(gate) }) }
	s := testServer(t, func(c *serve.Config) {
		c.MaxInFlight = 1
		c.MaxQueue = 1
		c.Core.Corpus = nil // live evaluation, so the gate controls timing
	})
	s.Suite().Lookup = blockingLookup(gate)

	var wg sync.WaitGroup
	// However the test ends, a failed assertion included, open the gate and
	// wait for both requests, so neither outlives it.
	t.Cleanup(func() {
		release()
		wg.Wait()
	})
	results := make([]*httptest.ResponseRecorder, 2)
	finished := make(chan int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = do(s, httptest.NewRequest("POST", fmt.Sprintf("/eval?benchmark=slow%d", i), nil))
			finished <- i
		}(i)
	}
	// Wait, for as long as the test may run, until one evaluation holds the
	// slot and one sits in the queue. Neither may finish while the gate is
	// shut: one that does was turned away.
	deadline, bounded := t.Deadline()
	for {
		snap := s.Telemetry().Snapshot()
		if snap.Gauges["serve.inflight"] == 1 && snap.Gauges["serve.queue_depth"] == 1 {
			break
		}
		select {
		case i := <-finished:
			t.Fatalf("request %d answered before the gate opened: %d, body %s", i, results[i].Code, results[i].Body)
		default:
		}
		if bounded && time.Until(deadline) < time.Second {
			t.Fatalf("admission never filled: %v", snap.Gauges)
		}
		time.Sleep(time.Millisecond)
	}

	w := do(s, httptest.NewRequest("POST", "/eval?benchmark=slow2", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("over-queue request = %d, want 503 (body %s)", w.Code, w.Body)
	}
	if e := decodeError(t, w); e.Code != "overloaded" {
		t.Fatalf("error code %q, want overloaded", e.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("overload rejection carries no Retry-After")
	}

	release()
	wg.Wait()
	for i, w := range results {
		if w.Code != http.StatusOK {
			t.Fatalf("admitted request %d = %d, body %s", i, w.Code, w.Body)
		}
	}
	if got := s.Telemetry().Snapshot().Counters["serve.rejected_queue"]; got != 1 {
		t.Fatalf("serve.rejected_queue = %d, want 1", got)
	}
}

// TestServeRateLimit: one client hammering past its bucket gets 429s; a
// different client is untouched.
func TestServeRateLimit(t *testing.T) {
	s := testServer(t, func(c *serve.Config) {
		c.RatePerSec = 0.001 // effectively no refill within the test
		c.Burst = 2
	})
	req := func(token string) *httptest.ResponseRecorder {
		r := httptest.NewRequest("POST", "/eval?benchmark=no-such", nil)
		r.Header.Set("X-API-Token", token)
		return do(s, r)
	}
	// Burst of 2 admitted (they 404 on the unknown name — past admission).
	for i := 0; i < 2; i++ {
		if w := req("alice"); w.Code != http.StatusNotFound {
			t.Fatalf("within-burst request %d = %d, want 404", i, w.Code)
		}
	}
	w := req("alice")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-burst request = %d, want 429", w.Code)
	}
	if e := decodeError(t, w); e.Code != "rate_limited" {
		t.Fatalf("error code %q, want rate_limited", e.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("rate-limit rejection carries no Retry-After")
	}
	// Bob has his own bucket.
	if w := req("bob"); w.Code != http.StatusNotFound {
		t.Fatalf("distinct client rate-limited: %d", w.Code)
	}
	// Anonymous clients key on remote address.
	anon := httptest.NewRequest("POST", "/eval?benchmark=no-such", nil)
	anon.RemoteAddr = "10.0.0.9:1234"
	if w := do(s, anon); w.Code != http.StatusNotFound {
		t.Fatalf("anonymous client = %d, want 404", w.Code)
	}
}

// TestServeDrain: a drain lets the in-flight evaluation finish, flips
// /readyz to 503, rejects new work with a typed "draining" error, and
// returns once quiet. A second drain against stuck work times out.
func TestServeDrain(t *testing.T) {
	gate := make(chan struct{})
	s := testServer(t, func(c *serve.Config) {
		c.MaxInFlight = 2
		c.Core.Corpus = nil
		c.DrainTimeout = 2 * time.Second
		c.WarmBenchmarks = []string{}
	})
	s.Suite().Lookup = blockingLookup(gate)
	if err := s.WarmCheck(context.Background()); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	var inflight *httptest.ResponseRecorder
	go func() {
		defer wg.Done()
		inflight = do(s, httptest.NewRequest("POST", "/eval?benchmark=slow0", nil))
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Telemetry().Snapshot().Gauges["serve.inflight"] != 1 {
		if time.Now().After(deadline) {
			t.Fatal("evaluation never started")
		}
		time.Sleep(time.Millisecond)
	}

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}

	if w := do(s, httptest.NewRequest("GET", "/readyz", nil)); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining = %d, want 503", w.Code)
	}
	w := do(s, httptest.NewRequest("POST", "/eval?benchmark=wc", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("eval while draining = %d, want 503", w.Code)
	}
	if e := decodeError(t, w); e.Code != "draining" {
		t.Fatalf("error code %q, want draining", e.Code)
	}
	// /healthz keeps answering through the drain.
	if w := do(s, httptest.NewRequest("GET", "/healthz", nil)); w.Code != http.StatusOK {
		t.Fatalf("/healthz while draining = %d, want 200", w.Code)
	}

	close(gate)
	if err := <-drained; err != nil {
		t.Fatalf("drain with releasable work: %v", err)
	}
	wg.Wait()
	if inflight.Code != http.StatusOK {
		t.Fatalf("in-flight evaluation during drain = %d, body %s", inflight.Code, inflight.Body)
	}
}

// TestServeDrainDeadline: in-flight work that never finishes cannot hold the
// drain hostage past the hard deadline.
func TestServeDrainDeadline(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	s := testServer(t, func(c *serve.Config) {
		c.MaxInFlight = 1
		c.Core.Corpus = nil
		c.DrainTimeout = 50 * time.Millisecond
	})
	s.Suite().Lookup = blockingLookup(gate)

	go do(s, httptest.NewRequest("POST", "/eval?benchmark=slow0", nil))
	deadline := time.Now().Add(5 * time.Second)
	for s.Telemetry().Snapshot().Gauges["serve.inflight"] != 1 {
		if time.Now().After(deadline) {
			t.Fatal("evaluation never started")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Drain(context.Background()); err == nil {
		t.Fatal("drain returned nil with work stuck in flight")
	}
}

// TestServePanicIsStructured500: an evaluation that panics comes back as a
// structured 500 with code "panic" and phase "panic", and the server keeps
// serving afterwards.
func TestServePanicIsStructured500(t *testing.T) {
	s := testServer(t, func(c *serve.Config) { c.Core.Corpus = nil })
	s.Suite().Lookup = func(name string) (*workloads.Benchmark, error) {
		if name == "poisoned" {
			return &workloads.Benchmark{
				Name:    "poisoned",
				Runs:    1,
				Sources: []string{"func main() { return 0; }"},
				Input:   func(int) []byte { panic("hostile input generator") },
			}, nil
		}
		return workloads.ByName(name)
	}

	w := do(s, httptest.NewRequest("POST", "/eval?benchmark=poisoned", nil))
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("panicked evaluation = %d, want 500 (body %s)", w.Code, w.Body)
	}
	e := decodeError(t, w)
	if e.Code != "panic" || e.Phase != "panic" || e.Benchmark != "poisoned" {
		t.Fatalf("panic error = %+v, want code/phase panic for poisoned", e)
	}
	// The daemon survived: a healthy benchmark still evaluates.
	if w := do(s, httptest.NewRequest("POST", "/eval?benchmark=wc", nil)); w.Code != http.StatusOK {
		t.Fatalf("eval after panic = %d, body %s", w.Code, w.Body)
	}
}

// TestServeEvalMatchesUpload: under a non-default BTB geometry in
// Core.SchemeConfigs, evaluating wc by name and uploading wc's full BCT2
// trace configure their predictors from the same set and score alike. The
// buffers are direct-mapped: wc has 16 branch sites, so a 16-entry fully
// associative buffer would score exactly like the paper's 256 entries.
func TestServeEvalMatchesUpload(t *testing.T) {
	s := testServer(t, func(c *serve.Config) { c.Core.SchemeConfigs = predict.BTBConfigs(16, 1, 0, nil) })
	b, err := workloads.ByName("wc")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tracefile.Record(prog, b.Inputs())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	scores := func(w *httptest.ResponseRecorder) map[string]any {
		t.Helper()
		if w.Code != http.StatusOK {
			t.Fatalf("status %d, body %s", w.Code, w.Body)
		}
		out := map[string]any{}
		for _, m := range ndjsonLines(t, w.Body) {
			switch m["kind"] {
			case "scheme":
				delete(m, "extra") // buffer metrics ride benchmark evaluations only
				out[m["scheme"].(string)] = m
			case "manifest":
				out["configs"] = m["manifest"].(map[string]any)["config"].(map[string]any)["scheme_configs"]
			}
		}
		return out
	}
	eval := scores(do(s, httptest.NewRequest("POST", "/eval?benchmark=wc", nil)))
	upload := scores(do(s, httptest.NewRequest("POST", "/eval?schemes=sbtb,cbtb", bytes.NewReader(buf.Bytes()))))
	want := map[string]any{"cbtb": "assoc=1 bits=2 entries=16 threshold=2", "sbtb": "assoc=1 entries=16"}
	if !reflect.DeepEqual(eval["configs"], want) {
		t.Fatalf("evaluation ran with %v, want %v", eval["configs"], want)
	}
	delete(eval, "configs")
	if len(eval) != 2 || !reflect.DeepEqual(eval, upload) {
		t.Fatalf("scores differ:\n/eval?benchmark=wc %v\nupload %v", eval, upload)
	}
}

// TestServeUploadTrace: a recorded BCT2 trace uploaded to /eval replays
// under context-free schemes and scores identically to a direct replay.
func TestServeUploadTrace(t *testing.T) {
	s := testServer(t, nil)
	b, err := workloads.ByName("wc")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tracefile.Record(prog, [][]byte{b.Input(0)})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	w := do(s, httptest.NewRequest("POST", "/eval?schemes=sbtb,always-not-taken", bytes.NewReader(raw)))
	if w.Code != http.StatusOK {
		t.Fatalf("upload eval = %d, body %s", w.Code, w.Body)
	}
	lines := ndjsonLines(t, w.Body)
	var got []map[string]any
	for _, m := range lines {
		if m["kind"] == "scheme" {
			got = append(got, m)
		}
	}
	if len(got) != 2 || got[0]["scheme"] != "sbtb" || got[1]["scheme"] != "always-not-taken" {
		t.Fatalf("upload stream schemes %v, want [sbtb always-not-taken]", got)
	}
	if got[0]["branches"].(float64) == 0 {
		t.Fatal("upload replay scored zero branches")
	}

	// Typed rejections: context-needing scheme, unknown scheme, oversize body.
	w = do(s, httptest.NewRequest("POST", "/eval?schemes=fs", bytes.NewReader(raw)))
	if e := decodeError(t, w); w.Code != http.StatusBadRequest || e.Code != "scheme_needs_context" {
		t.Fatalf("fs upload = %d/%s, want 400/scheme_needs_context", w.Code, e.Code)
	}
	w = do(s, httptest.NewRequest("POST", "/eval?schemes=bogus", bytes.NewReader(raw)))
	if e := decodeError(t, w); w.Code != http.StatusBadRequest || e.Code != "unknown_scheme" {
		t.Fatalf("bogus upload = %d/%s, want 400/unknown_scheme", w.Code, e.Code)
	}
	tiny := testServer(t, func(c *serve.Config) { c.MaxUploadBytes = 16 })
	w = do(tiny, httptest.NewRequest("POST", "/eval?schemes=sbtb", bytes.NewReader(raw)))
	if e := decodeError(t, w); w.Code != http.StatusRequestEntityTooLarge || e.Code != "upload_too_large" {
		t.Fatalf("oversize upload = %d/%s, want 413/upload_too_large", w.Code, e.Code)
	}
	// Garbage, and a stream in the retired fixed-width BCT1 encoding (magic,
	// uint64 event count, 16 bytes per event), are both bad traces; the
	// daemon keeps serving after either.
	bct1 := append([]byte("BCT1"), binary.LittleEndian.AppendUint64(nil, 1)...)
	bct1 = append(bct1, 3, 0, 0, 0, 3, 0, 0, 0, 9, 0, 0, 0, byte(isa.BEQ), 1, 0, 0)
	for name, body := range map[string][]byte{"garbage": []byte("not a trace"), "bct1": bct1} {
		w = do(s, httptest.NewRequest("POST", "/eval?schemes=sbtb", bytes.NewReader(body)))
		if e := decodeError(t, w); w.Code != http.StatusBadRequest || e.Code != "bad_trace" {
			t.Fatalf("%s upload = %d/%s, want 400/bad_trace", name, w.Code, e.Code)
		}
		w = do(s, httptest.NewRequest("POST", "/eval?schemes=sbtb", bytes.NewReader(raw)))
		if w.Code != http.StatusOK {
			t.Fatalf("upload after %s upload = %d, body %s", name, w.Code, w.Body)
		}
	}
}
