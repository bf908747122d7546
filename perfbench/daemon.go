package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"branchcost/internal/isa"
	"branchcost/internal/predict"
	"branchcost/internal/serve"
	"branchcost/internal/tracefile"
	"branchcost/internal/vm"
	"branchcost/internal/workloads"
)

// uploadRuns is how many single-run traces of each benchmark the request
// set holds; btb-stress, with three registered runs, bounds it.
const uploadRuns = 3

// nominalSweepS is the seconds of --seconds a sweep stands for (see
// warmPassS).
const nominalSweepS = 10.0

// uploadBody is one request's payload: a single-run BCT2 trace.
type uploadBody struct {
	bench  string
	run    int // input index within the seed's runs
	body   []byte
	events int
}

// uploadRunsFor draws, from the seed, which of each benchmark's runs the
// request set uploads.
func uploadRunsFor(seed int) (map[string][]int, error) {
	rng := rand.New(rand.NewSource(int64(seed)*7919 + 17))
	out := map[string][]int{}
	for _, n := range benchNames {
		b, err := workloads.ByName(n)
		if err != nil {
			return nil, err
		}
		out[n] = rng.Perm(b.Runs)[:uploadRuns]
	}
	return out, nil
}

// sweepOrder draws the request order of one sweep from the seed.
func sweepOrder(seed, sweep, n int) []int {
	return rand.New(rand.NewSource(int64(seed)*104729 + int64(sweep) + 1)).Perm(n)
}

// buildBodies compiles each benchmark and records and encodes its
// request traces, on the worker pool. The traced run records spans.
func buildBodies(ctx context.Context, r *run) ([]uploadBody, error) {
	runs, err := uploadRunsFor(r.seed)
	if err != nil {
		return nil, err
	}
	out := make([]uploadBody, len(benchNames)*uploadRuns)
	err = forEach(func(i int, name string, lane int) error {
		op := "setup:" + name
		b, err := seeded(name, r.seed)
		if err != nil {
			return err
		}
		var prog *isa.Program
		if r.traced {
			prog, err = compileTraced(r, b, op, -1, lane)
		} else {
			prog, err = b.Program()
		}
		if err != nil {
			return err
		}
		for j, run := range runs[name] {
			sp := r.tr.begin(op, "workloads.input", -1, lane)
			in := b.Input(run)
			r.tr.end(sp)
			r.addInputs(in)
			sp = r.tr.begin(op, "vm.record", -1, lane)
			tr, err := tracefile.RecordConfig(ctx, prog, [][]byte{in}, vm.Config{})
			r.tr.end(sp)
			if err != nil {
				return err
			}
			r.steps.Add(tr.Steps)
			var buf bytes.Buffer
			sp = r.tr.begin(op, "tracefile.encode", -1, lane)
			_, err = tr.WriteTo(&buf)
			r.tr.end(sp)
			if err != nil {
				return err
			}
			out[i*uploadRuns+j] = uploadBody{bench: name, run: run, body: buf.Bytes(), events: tr.Len()}
		}
		return nil
	})
	return out, err
}

// daemon is an in-process evaluation server on a loopback listener.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	served chan error
	client *http.Client
}

// startDaemon starts a default-configured server with no corpus and waits
// for /readyz. The warm set is empty: with no corpus there is nothing for
// the readiness warm-check to load, and uploads never touch the suite.
func startDaemon(ctx context.Context) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv:    serve.New(serve.Config{WarmBenchmarks: []string{}}),
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers}},
	}
	d.hs = &http.Server{Handler: d.srv}
	go func() { d.served <- d.hs.Serve(ln) }()
	if err := d.srv.WarmCheck(ctx); err != nil {
		d.stop(ctx)
		return nil, err
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := d.client.Get(d.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop(ctx)
			return nil, fmt.Errorf("daemon not ready after 10s (last error %v)", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop drains the server, shuts the listener and waits for Serve to return.
func (d *daemon) stop(ctx context.Context) error {
	derr := d.srv.Drain(ctx)
	serr := d.hs.Shutdown(ctx)
	if err := <-d.served; err != http.ErrServerClosed {
		return fmt.Errorf("serve: %v", err)
	}
	d.client.CloseIdleConnections()
	if derr != nil {
		return derr
	}
	return serr
}

// reply is one request's outcome.
type reply struct {
	status  int
	latency time.Duration
	counts  map[string]schemeCounts
	err     error
}

// schemeCounts is one NDJSON scheme line's simulated statistics.
type schemeCounts struct {
	Accuracy float64 `json:"accuracy"`
	Branches int64   `json:"branches"`
	Correct  int64   `json:"correct"`
	Hits     int64   `json:"hits"`
	Misses   int64   `json:"misses"`
}

// post uploads one body and parses the NDJSON reply.
func (d *daemon) post(body []byte) reply {
	start := time.Now()
	resp, err := d.client.Post(d.url+"/eval", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return reply{err: err, latency: time.Since(start)}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rep := reply{status: resp.StatusCode, latency: time.Since(start), err: err}
	if err != nil || resp.StatusCode != http.StatusOK {
		return rep
	}
	rep.counts = map[string]schemeCounts{}
	done := false
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var line struct {
			Kind   string `json:"kind"`
			Scheme string `json:"scheme"`
			schemeCounts
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			rep.err = err
			return rep
		}
		switch line.Kind {
		case "scheme":
			rep.counts[line.Scheme] = line.schemeCounts
		case "done":
			done = true
		}
	}
	if !done {
		rep.err = fmt.Errorf("reply has no done line")
	}
	return rep
}

// loopResult collects the sweeps of a request loop.
type loopResult struct {
	sweeps       []float64 // wall seconds per sweep
	peaks        []float64 // peak RSS per sweep, MB
	allocMB, gcs float64   // heap allocated and GC cycles, summed over sweeps
	replies      [][]reply // [sweep][body index]
}

// sweep sends every body once, in the seed's order for sweep s, from a
// closed loop of `workers` clients, each sending its next request when its
// previous reply has arrived. The sweep ends when all its replies are in.
func (lr *loopResult) sweep(r *run, d *daemon, bodies []uploadBody, s int, traced bool) {
	order := sweepOrder(r.seed, s, len(bodies))
	reps := make([]reply, len(bodies))
	var next atomic.Int64
	var wg sync.WaitGroup
	m := startPass()
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(order) {
					return
				}
				i := order[k]
				sp := -1
				if traced {
					sp = r.tr.begin(fmt.Sprintf("req:%d:%d", s, k), "serve.request", -1, lane)
				}
				reps[i] = d.post(bodies[i].body)
				r.tr.end(sp)
			}
		}(c)
	}
	wg.Wait()
	m.stop()
	lr.sweeps = append(lr.sweeps, m.Wall.Seconds())
	lr.peaks = append(lr.peaks, m.PeakMB)
	lr.allocMB += m.AllocMB
	lr.gcs += m.GCs
	lr.replies = append(lr.replies, reps)
}

// total is the loop's summed sweep time.
func (lr *loopResult) total() float64 {
	t := 0.0
	for _, w := range lr.sweeps {
		t += w
	}
	return t
}

// expectedReply scores a body in-process exactly as the upload handler
// does: decode the BCT2 bytes, then one parallel replay of the default
// scheme set.
func expectedReply(ctx context.Context, body []byte) (map[string]predict.Stats, error) {
	tr, err := tracefile.ReadTraceContext(ctx, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	evs := make([]*predict.Evaluator, len(uploadSchemes))
	hooks := make([]vm.BranchFunc, len(uploadSchemes))
	for i, n := range uploadSchemes {
		evs[i] = &predict.Evaluator{P: predict.MustLookup(n).New(predict.SchemeContext{})}
		hooks[i] = evs[i].Hook()
	}
	if err := tr.ScoreParallelContext(ctx, hooks...); err != nil {
		return nil, err
	}
	out := make(map[string]predict.Stats, len(uploadSchemes))
	for i, n := range uploadSchemes {
		out[n] = evs[i].S
	}
	return out, nil
}

// expectedReplies scores every body in-process, outside the timing.
func expectedReplies(ctx context.Context, bodies []uploadBody) ([]map[string]predict.Stats, error) {
	want := make([]map[string]predict.Stats, len(bodies))
	for i, b := range bodies {
		var err error
		if want[i], err = expectedReply(ctx, b.body); err != nil {
			return nil, fmt.Errorf("%s run %d: in-process replay: %w", b.bench, b.run, err)
		}
	}
	return want, nil
}

// checkReplies counts every request as an operation and fails each one
// that was refused or whose scores differ from the in-process replay. It
// returns every request's latency and the number that succeeded.
func checkReplies(r *run, bodies []uploadBody, want []map[string]predict.Stats, lr loopResult) (lat []float64, ok int) {
	for _, reps := range lr.replies {
		for i, rep := range reps {
			r.attempted++
			lat = append(lat, float64(rep.latency.Nanoseconds())/1e6)
			if bad := replyProblem(rep, want[i]); bad != "" {
				r.failed++
				r.fail("%s run %d: %s", bodies[i].bench, bodies[i].run, bad)
				continue
			}
			ok++
		}
	}
	return lat, ok
}

func replyProblem(rep reply, want map[string]predict.Stats) string {
	switch {
	case rep.err != nil:
		return rep.err.Error()
	case rep.status != http.StatusOK:
		return fmt.Sprintf("status %d", rep.status)
	case len(rep.counts) != len(want):
		return fmt.Sprintf("%d scheme lines, want %d", len(rep.counts), len(want))
	}
	for n, st := range want {
		got := rep.counts[n]
		if (counts{got.Branches, got.Correct, got.Hits, got.Misses}) != countsOf(st) || got.Accuracy != st.Accuracy() {
			return fmt.Sprintf("%s: reply %+v, in-process %+v", n, got, st)
		}
	}
	return ""
}

// daemonSetup is one set-up: compile, record and encode the request traces,
// start the server and wait for /readyz.
func daemonSetup(ctx context.Context, r *run) ([]uploadBody, *daemon, error) {
	bodies, err := buildBodies(ctx, r)
	if err != nil {
		return nil, nil, err
	}
	d, err := startDaemon(ctx)
	return bodies, d, err
}

func daemonUpload(r *run) error {
	ctx := context.Background()
	var setups []float64
	var bodies []uploadBody
	var d *daemon
	for rep := 0; rep < setupReps; rep++ {
		if d != nil {
			if err := d.stop(ctx); err != nil {
				return err
			}
		}
		runtime.GC()
		start := time.Now()
		var err error
		if bodies, d, err = daemonSetup(ctx, r); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if r.traced {
			break // the traced run sets up once
		}
	}
	defer d.stop(ctx)
	sweeps := passCount(r.seconds, nominalSweepS, 4)
	want, err := expectedReplies(ctx, bodies)
	if err != nil {
		return err
	}
	if r.traced {
		return tracedDaemon(ctx, r, d, bodies, want, sweeps)
	}
	var lr loopResult
	for s := 0; s < sweeps; s++ {
		lr.sweep(r, d, bodies, s, false)
	}
	lat, ok := checkReplies(r, bodies, want, lr)
	var events int64
	for _, b := range bodies {
		events += int64(b.events)
	}
	r.scaleTo(events, uploadRefEvents)
	r.setScaled("setup_s", median(setups), "s")
	r.setScaled("pass_s", median(lr.sweeps), "s")
	r.setScaled("req_per_s", float64(ok)/lr.total(), "1/s")
	p95, err := percentile(lat, 95)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d requests, raw p50 %.4g ms, p95 %.4g ms; raw sweeps %.4v s, peak RSS %.4v MB, setups %.3v s\n",
		len(lat), median(lat), p95, lr.sweeps, lr.peaks, setups)
	return nil
}
