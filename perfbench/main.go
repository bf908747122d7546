// Command perfbench is the repository's benchmark: it times calls into the
// branchcost packages on three frozen workloads (suite-warm, record-cold,
// daemon-upload), checks every simulated statistic they produce, and
// prints one JSON result line. See README.md for the workloads, the metric
// definitions and how to read a traced run.
//
//	bash perfbench/run.sh --workload suite-warm --seed 0 --seconds 40 --trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one process's settings, tracer and bookkeeping.
type run struct {
	workload string
	seed     int
	seconds  int
	traced   bool
	root     string // checkout root
	tmp      string // this process's private temporary directory
	outDir   string // where a traced run writes its span files
	tr       *tracer

	// Work counts the traced run's spans are divided by.
	steps, insts, inputBytes atomic.Int64

	// scale converts this seed's timings to the reference input size
	// (see scaleTo); 1 on seed 0.
	scale float64

	metrics   map[string]metric
	attempted int
	failed    int
	problems  []string // failed output checks, reported on stderr
}

func (r *run) addInputs(in ...[]byte) {
	for _, x := range in {
		r.inputBytes.Add(int64(len(x)))
	}
}

func (r *run) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// Seed 0's work: branch events in the 18 benchmarks' traces (one suite
// pass), and in daemon-upload's 54 request bodies (one sweep).
const (
	suiteRefEvents  = 31334769
	uploadRefEvents = 11461624
)

// scaleTo sets the factor that converts this run's totals to the reference
// (seed-0) input size. Seeds change the work itself — the 18 traces hold
// 29.0M-35.6M events over seeds 0-9 — and the end-to-end metrics compare
// runs across seeds, so set-up and pass times are multiplied by ref/events
// and rates by events/ref. On seed 0 the factor is 1. Per-operation
// latencies (per-layer metrics) are not scaled: operations differ in size
// within a run.
func (r *run) scaleTo(events, ref int64) {
	r.scale = float64(ref) / float64(events)
	fmt.Fprintf(os.Stderr, "perfbench: %d branch events per pass (seed 0: %d), scale %.5f\n", events, ref, r.scale)
}

// setScaled sets an end-to-end metric scaled to the reference input size:
// times by the factor, rates (unit 1/s) by its inverse.
func (r *run) setScaled(name string, v float64, unit string) {
	if unit == "1/s" {
		r.set(name, v/r.scale, unit)
	} else {
		r.set(name, v*r.scale, unit)
	}
}

// fail records a failed output check; it does not by itself count an
// operation (callers count the operation it belongs to).
func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(r.problems) < 50 {
		r.problems = append(r.problems, msg)
	}
}

// endToEnd lists the metrics every untraced run reports, in report order.
var endToEnd = []string{"setup_s", "pass_s", "req_per_s"}

var workloadFuncs = map[string]func(*run) error{
	"suite-warm":    suiteWarm,
	"record-cold":   recordCold,
	"daemon-upload": daemonUpload,
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var r run
	var trace int
	flag.StringVar(&r.workload, "workload", "", "suite-warm, record-cold or daemon-upload")
	flag.IntVar(&r.seed, "seed", 0, "input seed; 0 is the registered suite")
	flag.IntVar(&r.seconds, "seconds", 40, "nominal measured seconds; sets the pass or request count")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run")
	flag.Parse()
	fn, ok := workloadFuncs[r.workload]
	if !ok || r.seed < 0 || r.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seed %d, seconds %d, trace %d)\n",
			r.workload, r.seed, r.seconds, trace)
		return 2
	}
	r.traced = trace == 1
	r.tr = newTracer(r.traced)
	r.metrics = map[string]metric{}
	r.root = os.Getenv("PERFBENCH_ROOT")
	if r.root == "" {
		r.root, _ = os.Getwd()
	}
	r.outDir = filepath.Join(r.root, ".bench_build", "perfbench")
	tmpRoot := filepath.Join(r.root, ".bench_build", "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(tmpRoot, "perfbench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	r.tmp = tmp
	defer os.RemoveAll(tmp)

	fp := fingerprint(r.root)
	fp["workload"], fp["seed"], fp["seconds"], fp["trace"] = r.workload, r.seed, r.seconds, trace
	fpLine, _ := json.Marshal(fp)
	fmt.Printf("fingerprint %s\n", fpLine)

	if err := fn(&r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		return 1
	}
	want := endToEnd
	if r.traced {
		want = perLayerNames()
	}
	if len(r.metrics) != len(want) {
		fmt.Fprintf(os.Stderr, "perfbench: %d metrics reported, want %d\n", len(r.metrics), len(want))
		return 1
	}
	for _, n := range want {
		if _, ok := r.metrics[n]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s not reported\n", n)
			return 1
		}
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	res := result{
		Correct:   r.failed == 0 && len(r.problems) == 0 && r.attempted > 0,
		Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics,
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-44s %14.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// passCount turns the nominal measured seconds into a fixed number of
// passes, so every run of a workload does identical work however fast the
// host is at the time.
func passCount(seconds int, nominalPassS float64, minPasses int) int {
	n := int(float64(seconds)/nominalPassS + 0.5)
	return max(n, minPasses)
}

// resetPeakRSS restarts the process's peak-RSS count (VmHWM) from its
// current RSS, so a pass's peak excludes set-up and earlier passes.
func resetPeakRSS() {
	// An unsupported reset leaves VmHWM the process-lifetime peak, which is
	// still a valid (larger) upper bound.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's maximum resident set size (VmHWM) since the
// last resetPeakRSS.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// runtimeCounters reads the heap bytes allocated and GC cycles so far.
func runtimeCounters() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// passMeter measures one pass: a forced GC before it (outside the timing),
// then wall time, peak RSS, heap allocation and GC cycles across it.
type passMeter struct {
	start       time.Time
	alloc0, gc0 uint64

	Wall         time.Duration
	PeakMB       float64
	AllocMB, GCs float64
}

func startPass() *passMeter {
	runtime.GC()
	resetPeakRSS()
	m := &passMeter{}
	m.alloc0, m.gc0 = runtimeCounters()
	m.start = time.Now()
	return m
}

func (m *passMeter) stop() {
	m.Wall = time.Since(m.start)
	m.PeakMB = peakRSSMB()
	a, g := runtimeCounters()
	m.AllocMB = float64(a-m.alloc0) / (1 << 20)
	m.GCs = float64(g - m.gc0)
}

// fingerprint describes the machine and the code a result came from, so
// later runs compare like for like.
func fingerprint(root string) map[string]any {
	fp := map[string]any{
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"kernel":     strings.TrimSpace(readFile("/proc/sys/kernel/osrelease")),
		"commit":     commit(root),
		"source_sha": sourceHash(root),
	}
	return fp
}

func readFile(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return string(b)
}

func cpuModel() string {
	for _, line := range strings.Split(readFile("/proc/cpuinfo"), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from .git without running git; a
// checkout that is not a repository reports "none" and is identified by
// source_sha instead.
func commit(root string) string {
	head := strings.TrimSpace(readFile(filepath.Join(root, ".git", "HEAD")))
	if ref, ok := strings.CutPrefix(head, "ref: "); ok {
		return strings.TrimSpace(readFile(filepath.Join(root, ".git", ref)))
	}
	if head == "unknown" || head == "" {
		return "none"
	}
	return head
}

// sourceHash is a SHA-256 over the checkout's Go sources and module files,
// in path order, so two results name the code they measured.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, rel+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
