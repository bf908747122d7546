package core_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"branchcost/internal/attr"
	"branchcost/internal/compile"
	"branchcost/internal/core"
	"branchcost/internal/pipeline"
	"branchcost/internal/predict"
	"branchcost/internal/workloads"
)

const testSrc = `
var hist[4];
func main() {
	var c;
	c = getc();
	while (c != -1) {
		if (c >= 'a') { hist[0] += 1; }
		else if (c >= 'A') { hist[1] += 1; }
		else if (c >= '0') { hist[2] += 1; }
		else { hist[3] += 1; }
		c = getc();
	}
	putc('0' + hist[0] % 10);
	putc('0' + hist[1] % 10);
	putc('0' + hist[2] % 10);
	putc('0' + hist[3] % 10);
}`

var testInputs = [][]byte{
	[]byte("hello WORLD 123!"),
	[]byte("aAbB12..."),
	[]byte(""),
}

func TestEvaluateBasic(t *testing.T) {
	prog, err := compile.Compile(testSrc)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.Evaluate("t", prog, testInputs, testInputs, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Profile.Runs != len(testInputs) {
		t.Fatalf("runs = %d", e.Profile.Runs)
	}
	if e.Summary.Branches == 0 || e.Summary.Steps == 0 {
		t.Fatal("empty summary")
	}
	// All three schemes evaluated the same branch count.
	if e.SBTB().Stats.Branches != e.CBTB().Stats.Branches ||
		e.SBTB().Stats.Branches != e.FS().Stats.Branches {
		t.Fatalf("branch streams differ: %d / %d / %d",
			e.SBTB().Stats.Branches, e.CBTB().Stats.Branches, e.FS().Stats.Branches)
	}
	// Measured A_FS equals the analytic value on self-profiled inputs.
	if d := e.FS().Stats.Accuracy() - e.AnalyticFS; math.Abs(d) > 1e-12 {
		t.Fatalf("A_FS measured %v != analytic %v", e.FS().Stats.Accuracy(), e.AnalyticFS)
	}
	// The recorded trace matches the scored stream.
	if e.Trace == nil || int64(e.Trace.Len()) != e.SBTB().Stats.Branches {
		t.Fatalf("trace length mismatch: %+v vs %d branches", e.Trace, e.SBTB().Stats.Branches)
	}
	if e.FSResult == nil || e.FSResult.SlotCount != 2 {
		t.Fatalf("default slot count wrong: %+v", e.FSResult)
	}
}

func TestConfigDefaults(t *testing.T) {
	prog, err := compile.Compile(testSrc)
	if err != nil {
		t.Fatal(err)
	}
	// A partial config keeps paper defaults for the rest.
	e, err := core.Evaluate("t", prog, testInputs, testInputs, core.Config{EvalSlots: core.Ptr(5)})
	if err != nil {
		t.Fatal(err)
	}
	if e.FSResult.SlotCount != 5 {
		t.Fatalf("slot override ignored: %d", e.FSResult.SlotCount)
	}
}

func TestZeroCounterThresholdExpressible(t *testing.T) {
	prog, err := compile.Compile(testSrc)
	if err != nil {
		t.Fatal(err)
	}
	// Threshold 0 (predict taken for any cached branch) is a meaningful
	// sweep point; the nil/pointer rule must distinguish it from "unset".
	cfg := core.Config{SchemeConfigs: predict.ConfigSet{"cbtb": predict.CBTBConfig{
		CounterConfig: predict.CounterConfig{Threshold: predict.Ptr[uint8](0)},
	}}}
	zero, err := core.Evaluate("t", prog, testInputs, testInputs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dflt, err := core.Evaluate("t", prog, testInputs, testInputs, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if zero.CBTB().Stats == dflt.CBTB().Stats {
		t.Fatal("cbtb threshold 0 was silently replaced by the default")
	}
	c := (core.Config{}).Configs().Resolved("cbtb").(predict.CBTBConfig)
	if got := c.ThresholdValue(); got != 2 {
		t.Fatalf("default threshold = %d, want 2", got)
	}
	c = cfg.Configs().Resolved("cbtb").(predict.CBTBConfig)
	if got := c.ThresholdValue(); got != 0 {
		t.Fatalf("explicit zero threshold resolved to %d", got)
	}
}

// TestBadSchemeConfigIsTypedError: a configuration no predictor can be
// built from fails the evaluation with predict.ErrBadOption, naming the
// scheme, before any VM pass — the nil program would crash the first one.
func TestBadSchemeConfigIsTypedError(t *testing.T) {
	bad := core.Config{SchemeConfigs: predict.BTBConfigs(64, 0, 0, nil)} // assoc stays 256
	e, err := core.Evaluate("t", nil, testInputs, testInputs, bad)
	if e != nil || !errors.Is(err, predict.ErrBadOption) {
		t.Fatalf("Evaluate = %v, %v; want an ErrBadOption error", e, err)
	}
	if want := "cbtb.assoc=256"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name %s", err, want)
	}
}

func TestSchemeListAndRegistry(t *testing.T) {
	prog, err := compile.Compile(testSrc)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.Evaluate("t", prog, testInputs, testInputs,
		core.Config{Schemes: []string{"always-not-taken", "btfnt", "sbtb"}})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"always-not-taken", "btfnt", "sbtb"}; len(e.Order) != 3 ||
		e.Order[0] != want[0] || e.Order[1] != want[1] || e.Order[2] != want[2] {
		t.Fatalf("order = %v, want %v", e.Order, want)
	}
	if e.FSResult != nil {
		t.Fatal("transform ran without a transformed scheme")
	}
	for _, n := range e.Order {
		if e.Scheme(n).Stats.Branches == 0 {
			t.Fatalf("scheme %s scored no branches", n)
		}
	}
	if _, err := core.Evaluate("t", prog, testInputs, testInputs,
		core.Config{Schemes: []string{"no-such-scheme"}}); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if _, err := core.Evaluate("t", prog, testInputs, testInputs,
		core.Config{Schemes: []string{"sbtb", "sbtb"}}); err == nil {
		t.Fatal("duplicate scheme accepted")
	}
}

func TestCostHelper(t *testing.T) {
	prog, err := compile.Compile(testSrc)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.Evaluate("t", prog, testInputs, testInputs, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := pipeline.Config{K: 1, LBar: 1, MBar: 1}
	s, c, f, err := e.Cost(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{s, c, f} {
		if v < 1 || v > p.Penalty() {
			t.Fatalf("cost %v outside [1, penalty]", v)
		}
	}
	if got := p.Cost(e.FS().Stats.Accuracy()); got != f {
		t.Fatalf("Cost helper inconsistent: %v != %v", got, f)
	}
}

func TestFlushEveryDegradesHardwareOnly(t *testing.T) {
	b, err := workloads.ByName("wc")
	if err != nil {
		t.Fatal(err)
	}
	base, err := core.EvaluateBenchmark(b, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	flushed, err := core.EvaluateBenchmark(b, core.Config{FlushEvery: 500})
	if err != nil {
		t.Fatal(err)
	}
	if flushed.SBTB().Stats.Accuracy() >= base.SBTB().Stats.Accuracy() {
		t.Errorf("SBTB did not degrade under flushing: %.4f >= %.4f",
			flushed.SBTB().Stats.Accuracy(), base.SBTB().Stats.Accuracy())
	}
	if flushed.FS().Stats.Accuracy() != base.FS().Stats.Accuracy() {
		t.Errorf("FS changed under flushing: %.6f != %.6f",
			flushed.FS().Stats.Accuracy(), base.FS().Stats.Accuracy())
	}
}

func TestTrainTestSplit(t *testing.T) {
	prog, err := compile.Compile(testSrc)
	if err != nil {
		t.Fatal(err)
	}
	train := [][]byte{[]byte("aaaa bbb 11")}
	test := [][]byte{[]byte("ZZZZ !!! ??")}
	e, err := core.Evaluate("t", prog, train, test, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The profile reflects training inputs only.
	if e.Profile.Runs != 1 {
		t.Fatalf("profile runs = %d", e.Profile.Runs)
	}
	// Accuracy is measured on test inputs, where training-derived likely
	// bits can be wrong — the measured value may differ from the analytic
	// self-accuracy.
	if e.FS().Stats.Branches == 0 {
		t.Fatal("no test-run branches scored")
	}
}

func TestEvaluateBenchmarkCached(t *testing.T) {
	b, err := workloads.ByName("tee")
	if err != nil {
		t.Fatal(err)
	}
	e1, err := core.EvaluateBenchmark(b, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := core.EvaluateBenchmark(b, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Determinism end to end.
	if e1.FS().Stats != e2.FS().Stats || e1.SBTB().Stats != e2.SBTB().Stats {
		t.Fatal("evaluation is nondeterministic")
	}
}

// TestFSAttributionOriginalCoordinates: the Forward Semantic is scored over
// the original binary's trace, so its attribution sites carry the original
// binary's PC and opcode, not the transformed layout's.
func TestFSAttributionOriginalCoordinates(t *testing.T) {
	b, err := workloads.ByName("cmp")
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.EvaluateBenchmark(b, core.Config{Attribution: &attr.Options{TopK: 1 << 16}})
	if err != nil {
		t.Fatal(err)
	}
	sum := e.Attr["fs"]
	if sum == nil || len(sum.TopSites) == 0 || sum.Overflow != nil {
		t.Fatalf("fs attribution %+v, want every site tracked", sum)
	}
	if e.FSResult.Inversions == 0 {
		t.Fatal("cmp's layout inverts no branch; the opcode check would be vacuous")
	}
	for _, site := range sum.TopSites {
		if want := e.Program.Canonical(site.ID); site.PC != want {
			t.Errorf("fs site ID %d at PC %d, want %d", site.ID, site.PC, want)
		} else if op := e.Program.Code[site.PC].Op.String(); site.Op != op {
			t.Errorf("fs site ID %d has op %s, want the original %s", site.ID, site.Op, op)
		}
	}
}
