// Quickstart: compile an MC program, profile it, and compare the paper's
// three branch schemes (SBTB, CBTB, Forward Semantic) on it, including
// their branch cost under two pipeline operating points.
package main

import (
	"fmt"
	"log"

	"branchcost"
)

// A small histogram program: read text, bucket characters, print buckets.
const src = `
var buckets[8];
func bucket(c) {
	if (c >= 'a' && c <= 'z') { return 0; }
	if (c >= 'A' && c <= 'Z') { return 1; }
	if (c >= '0' && c <= '9') { return 2; }
	if (c == ' ' || c == '\t') { return 3; }
	if (c == '\n') { return 4; }
	if (c == '.' || c == ',' || c == ';') { return 5; }
	if (c < 32) { return 6; }
	return 7;
}
func main() {
	var c; var i;
	c = getc();
	while (c != -1) {
		buckets[bucket(c)] += 1;
		c = getc();
	}
	for (i = 0; i < 8; i += 1) {
		putc('0' + i); putc(':');
		var n; n = buckets[i];
		if (n == 0) { putc('0'); }
		while (n > 0) { putc('0' + n % 10); n /= 10; }
		putc('\n');
	}
}
`

func main() {
	prog, err := branchcost.Compile(src)
	if err != nil {
		log.Fatal(err)
	}

	// A small input suite, as the paper profiles each benchmark over many
	// runs.
	inputs := [][]byte{
		[]byte("Hello, World! 42 times.\n"),
		[]byte("the quick brown fox jumps over the lazy dog\n1234567890\n"),
		[]byte("AAA bbb CCC ddd; EEE fff.\n\n\n"),
	}

	// Evaluate all three schemes with the paper's hardware configuration
	// (256-entry fully-associative BTBs, 2-bit counters, k+l = 2 slots).
	eval, err := branchcost.Evaluate("quickstart", prog, inputs, inputs, branchcost.Config{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("program: %d instructions, %d dynamic branches over %d runs\n",
		len(prog.Code), eval.Summary.Branches, eval.Profile.Runs)
	fmt.Printf("control fraction: %.1f%%\n\n", 100*eval.Summary.ControlFraction())

	fmt.Printf("%-18s %-10s %-10s\n", "scheme", "accuracy", "miss ratio")
	fmt.Printf("%-18s %9.2f%% %10.4f\n", "SBTB (256, full)",
		100*eval.SBTB().Stats.Accuracy(), eval.SBTB().Stats.MissRatio())
	fmt.Printf("%-18s %9.2f%% %10.4f\n", "CBTB (2-bit, T=2)",
		100*eval.CBTB().Stats.Accuracy(), eval.CBTB().Stats.MissRatio())
	fmt.Printf("%-18s %9.2f%% %10s\n", "Forward Semantic",
		100*eval.FS().Stats.Accuracy(), "n/a")

	fmt.Printf("\nForward Semantic code growth at k+l=2: %.2f%% (%d -> %d instructions)\n",
		100*eval.FSResult.CodeGrowth(), eval.FSResult.OrigSize, eval.FSResult.NewSize)

	// The paper's cost model: cost = A + (k + l + m)(1 - A) cycles/branch.
	for _, p := range []struct {
		label string
		cfg   branchcost.PipelineConfig
	}{
		{"moderate pipeline (k=1, l=1, m=2)", branchcost.PipelineConfig{K: 1, LBar: 1, MBar: 2}},
		{"deep pipeline     (k=4, l=3, m=4)", branchcost.PipelineConfig{K: 4, LBar: 3, MBar: 4}},
	} {
		s, c, f, err := eval.Cost(p.cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s:\n  SBTB %.3f   CBTB %.3f   FS %.3f cycles/branch\n",
			p.label, s, c, f)
	}
}
