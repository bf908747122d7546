package experiments_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"branchcost/internal/core"
	"branchcost/internal/experiments"
	"branchcost/internal/pipeline"
	"branchcost/internal/tracefile"
	"branchcost/internal/vm"
	"branchcost/internal/workloads"
)

// TestFrontendCheckAgrees: on real benchmarks, the calibrated Superscalar
// model lands within each run's provable tolerance at every width, and at
// W = 1 the agreement collapses to the analytic identity (1e-9).
func TestFrontendCheckAgrees(t *testing.T) {
	s := experiments.NewSuite(core.Config{})
	names := []string{"wc", "cmp"}
	rows, _, err := experiments.FrontendCheck(s, names, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(names) * 2 * len(experiments.FrontendSchemes); len(rows) != want {
		t.Fatalf("%d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		if !r.OK {
			t.Errorf("%s W=%d %s: |%v - %v| = %v > tol %v",
				r.Benchmark, r.Width, r.Scheme, r.SimCost, r.SSCost, r.Err, r.Tolerance)
		}
		if r.Width == 1 && r.Err > 1e-9 {
			t.Errorf("%s W=1 %s: error %v not analytic-exact", r.Benchmark, r.Scheme, r.Err)
		}
	}
}

// TestFrontendSweepWidthOneIsAnalytic: at W = 1 the sweep's simulated cost,
// Superscalar model and VariableFetch model all coincide (the analytic
// degenerate point), and the replayed hardware-scheme accuracies equal the
// core evaluation's scored accuracies — same trace, same predictors.
func TestFrontendSweepWidthOneIsAnalytic(t *testing.T) {
	s := experiments.NewSuite(core.Config{Schemes: []string{"sbtb", "cbtb", "btb2l", "fs"}})
	rows, _, err := experiments.FrontendSweep(s, []string{"wc"}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := s.Eval("wc")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if math.Abs(r.SimCost-r.SSCost) > 1e-9 || math.Abs(r.SimCost-r.VFCost) > 1e-9 {
			t.Errorf("W=1 %s: sim %v, ss %v, vf %v — models must coincide",
				r.Scheme, r.SimCost, r.SSCost, r.VFCost)
		}
		switch r.Scheme {
		case "SBTB", "CBTB", "BTB2L":
			name := map[string]string{"SBTB": "sbtb", "CBTB": "cbtb", "BTB2L": "btb2l"}[r.Scheme]
			if want := e.Scheme(name).Stats.Accuracy(); math.Abs(r.Accuracy-want) > 1e-12 {
				t.Errorf("%s replay accuracy %v, core scored %v", r.Scheme, r.Accuracy, want)
			}
		}
	}
	// Eval.Cost accepts any frontend model; at W = 1 the wider models
	// reproduce the analytic Config numbers bit-exactly.
	base := pipeline.Config{K: 1, LBar: 2, MBar: 2}
	s1, c1, f1, err := e.Cost(base)
	if err != nil {
		t.Fatal(err)
	}
	s2, c2, f2, _ := e.Cost(pipeline.Superscalar{W: 1, Base: base, BreakRate: 0.9})
	s3, c3, f3, _ := e.Cost(pipeline.VariableFetch{W: 1, Base: base, Rate: 1})
	if s1 != s2 || c1 != c2 || f1 != f2 || s1 != s3 || c1 != c3 || f1 != f3 {
		t.Errorf("W=1 models disagree through Eval.Cost: (%v %v %v) (%v %v %v) (%v %v %v)",
			s1, c1, f1, s2, c2, f2, s3, c3, f3)
	}
}

// TestFrontendSweepIPC: the sweep's IPC column carries the superscalar
// view of the same simulations — the Forward Semantic's IPC advantage over
// the SBTB grows with fetch width, and fetch utilization falls with width.
func TestFrontendSweepIPC(t *testing.T) {
	names := []string{"wc", "compress"}
	if testing.Short() {
		names = names[:1]
	}
	rows, tbl, err := experiments.FrontendSweep(suite, names, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
	get := func(w int, sc string) experiments.FrontendRow {
		for _, r := range rows {
			if r.Width == w && r.Scheme == sc {
				return r
			}
		}
		t.Fatalf("row %d/%s missing", w, sc)
		return experiments.FrontendRow{}
	}
	prevAdv := 0.0
	for _, w := range experiments.FrontendWidths {
		fs, sbtb := get(w, "FS"), get(w, "SBTB")
		if fs.IPC < sbtb.IPC {
			t.Errorf("width %d: FS IPC %.3f below SBTB %.3f", w, fs.IPC, sbtb.IPC)
		}
		adv := fs.IPC/sbtb.IPC - 1
		if adv+1e-9 < prevAdv {
			t.Errorf("width %d: FS advantage shrank: %.4f < %.4f", w, adv, prevAdv)
		}
		prevAdv = adv
		if w > 1 && fs.Util >= get(1, "FS").Util {
			t.Errorf("width %d: utilization did not fall", w)
		}
	}
}

// rebuilt copies tr's first n events through edit into a new trace that
// keeps tr's recorded step and run totals.
func rebuilt(tr *tracefile.Trace, n int, edit func(*vm.BranchEvent)) *tracefile.Trace {
	out := &tracefile.Trace{Steps: tr.Steps, Runs: tr.Runs}
	i := 0
	tr.Replay(func(ev vm.BranchEvent) {
		if i < n {
			edit(&ev)
			out.Record(ev)
		}
		i++
	})
	return out
}

// tinySuite returns a suite that also resolves two small synthetic
// programs, "tiny" (a byte loop calling a function per byte) and "other"
// (a different loop), so the walk-failure cases stay cheap under the race
// detector.
func tinySuite() *experiments.Suite {
	tiny := &workloads.Benchmark{Name: "tiny", Runs: 3, Sources: []string{`
func odd(c) {
	if (c % 2 == 1) { return 1; }
	return 0;
}
func main() {
	var c; var n;
	n = 0;
	c = getc();
	while (c != -1) {
		n += odd(c);
		c = getc();
	}
	putc(n);
}
`}, Input: func(run int) []byte { return []byte(strings.Repeat("walk ", 200+run)) }}
	other := &workloads.Benchmark{Name: "other", Runs: 3, Sources: []string{`
func main() {
	var c; var n;
	n = 0;
	c = getc();
	while (c != -1) {
		if (c == 'a') { n += 1; }
		c = getc();
	}
	putc(n);
}
`}, Input: tiny.Input}
	s := experiments.NewSuite(core.Config{})
	s.Lookup = func(name string) (*workloads.Benchmark, error) {
		switch name {
		case "tiny":
			return tiny, nil
		case "other":
			return other, nil
		}
		return workloads.ByName(name)
	}
	return s
}

// TestFrontendRejectsMismatchedTraces: a trace that does not fit the
// program gives a located error from the walk (vm.ErrWalk), and an error,
// not a row, from every experiment that walks it.
func TestFrontendRejectsMismatchedTraces(t *testing.T) {
	s := tinySuite()
	e, err := s.Eval("tiny")
	if err != nil {
		t.Fatal(err)
	}
	other, err := s.Eval("other")
	if err != nil {
		t.Fatal(err)
	}
	good := e.Trace
	keep := func(*vm.BranchEvent) {}
	b, err := s.Lookup("tiny")
	if err != nil {
		t.Fatal(err)
	}
	short, err := tracefile.Record(e.Program, b.Inputs()[:b.Runs-1])
	if err != nil {
		t.Fatal(err)
	}
	short.Steps, short.Runs = good.Steps, good.Runs
	var first vm.BranchEvent
	good.Replay(func(ev vm.BranchEvent) {
		if first.Op == 0 {
			first = ev
		}
	})
	outside := int32(len(e.Program.Code) + 7)
	for _, tc := range []struct {
		name string
		tr   *tracefile.Trace
	}{
		{"another program's trace", other.Trace},
		{"last block cut", rebuilt(good, good.Len()-1024, keep)},
		{"final run missing", short},
		{"target outside the code", rebuilt(good, good.Len(), func(ev *vm.BranchEvent) {
			if ev.PC == first.PC && ev.Taken == first.Taken {
				ev.Target = outside
			}
		})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.tr.Walk(e.Program, func(int32, int32) {}); !errors.Is(err, vm.ErrWalk) || !strings.Contains(err.Error(), "events (run") {
				t.Fatalf("walk: %v, want a located vm.ErrWalk", err)
			}
			e.Trace = tc.tr
			defer func() { e.Trace = good }()
			for name, run := range map[string]func() (int, error){
				"FrontendSweep": func() (int, error) {
					rows, _, err := experiments.FrontendSweep(s, []string{"tiny"}, nil)
					return len(rows), err
				},
				"FrontendCheck": func() (int, error) {
					rows, _, err := experiments.FrontendCheck(s, []string{"tiny"}, nil)
					return len(rows), err
				},
				"ICache": func() (int, error) {
					rows, _, err := experiments.ICache(s, []string{"tiny"}, []int{2})
					return len(rows), err
				},
			} {
				if n, err := run(); !errors.Is(err, vm.ErrWalk) || n != 0 {
					t.Errorf("%s: %d rows, err %v; want no rows and a vm.ErrWalk", name, n, err)
				}
			}
		})
	}
	// The same suite's intact trace gives rows, so each failure above is
	// the corrupted trace's.
	if rows, _, err := experiments.FrontendCheck(s, []string{"tiny"}, nil); err != nil || len(rows) == 0 {
		t.Fatalf("intact trace: %d rows, err %v", len(rows), err)
	}
}
