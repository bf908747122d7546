package experiments_test

import (
	"testing"

	"branchcost/internal/core"
	"branchcost/internal/experiments"
	"branchcost/internal/predict"
	"branchcost/internal/workloads"
)

// TestModernSuite: the modern-class table covers every registered class
// member, scores every scheme of the panel, and its fs column agrees with
// the suite's own evaluation, which scores the layout's directions. Under
// a non-default BTB geometry its sbtb and cbtb columns equal the suite's
// own evaluation: both read the one configuration set.
func TestModernSuite(t *testing.T) {
	s := experiments.NewSuite(core.Config{SchemeConfigs: predict.BTBConfigs(16, 16, 0, nil)})
	rows, table, err := experiments.ModernSuite(s)
	if err != nil {
		t.Fatal(err)
	}
	if table == nil {
		t.Fatal("no table")
	}
	if len(rows) != len(workloads.Modern()) {
		t.Fatalf("%d rows, want %d", len(rows), len(workloads.Modern()))
	}
	for i, b := range workloads.Modern() {
		r := rows[i]
		if r.Benchmark != b.Name || r.Class != b.Class {
			t.Errorf("row %d is %s/%s, want %s/%s", i, r.Benchmark, r.Class, b.Name, b.Class)
		}
		for _, scheme := range experiments.ModernSchemes {
			a, ok := r.Accuracy[scheme]
			if !ok || a <= 0 || a > 1 {
				t.Errorf("%s/%s: accuracy %v out of (0,1]", r.Benchmark, scheme, a)
			}
		}
		e, err := s.Eval(b.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range []string{"sbtb", "cbtb", "fs"} {
			if got, want := r.Accuracy[scheme], e.Scheme(scheme).Stats.Accuracy(); got != want {
				t.Errorf("%s: %s column %v != suite %s %v", b.Name, scheme, got, scheme, want)
			}
		}
	}
}
