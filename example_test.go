package branchcost_test

import (
	"fmt"

	"branchcost"
)

// Example demonstrates the complete paper pipeline on a small program:
// compile, profile, evaluate all three schemes, and price them with the
// cost model.
func Example() {
	src := `
func main() {
	var c; var vowels;
	c = getc();
	while (c != -1) {
		if (c == 'a' || c == 'e' || c == 'i' || c == 'o' || c == 'u') {
			vowels += 1;
		}
		c = getc();
	}
	putc('0' + vowels % 10);
}`
	prog, err := branchcost.Compile(src)
	if err != nil {
		panic(err)
	}
	inputs := [][]byte{[]byte("the quick brown fox"), []byte("aeiou xyz")}
	eval, err := branchcost.Evaluate("vowels", prog, inputs, inputs, branchcost.Config{})
	if err != nil {
		panic(err)
	}
	p := branchcost.PipelineConfig{K: 1, LBar: 1, MBar: 1}
	s, c, f, err := eval.Cost(p)
	if err != nil {
		panic(err)
	}
	fmt.Printf("branches evaluated: %d\n", eval.FS().Stats.Branches)
	fmt.Printf("FS at least as cheap as SBTB: %v\n", f <= s)
	fmt.Printf("costs within model bounds: %v\n",
		s >= 1 && s <= p.Penalty() && c >= 1 && f >= 1)
	// Output:
	// branches evaluated: 181
	// FS at least as cheap as SBTB: true
	// costs within model bounds: true
}

// ExampleTransform shows the Forward Semantic transform in isolation.
func ExampleTransform() {
	src := `
func main() {
	var i;
	for (i = 0; i < 50; i += 1) { putc('.'); }
}`
	prog, _ := branchcost.Compile(src)
	prof, _ := branchcost.CollectProfile(prog, [][]byte{nil})
	res, _ := branchcost.Transform(prog, prof, 4)
	fmt.Printf("code grew by slots: %v\n", res.NewSize > res.OrigSize)
	fmt.Printf("likely branches got slots: %v\n", res.LikelyBranches > 0)
	// Output:
	// code grew by slots: true
	// likely branches got slots: true
}

// ExampleNewCBTB scores the paper's counter-based BTB over a benchmark's
// branch stream.
func ExampleNewCBTB() {
	b, _ := branchcost.BenchmarkByName("tee")
	prog, _ := b.Program()
	ev := &branchcost.Evaluator{P: branchcost.NewCBTB(256, 256, 2, 2)}
	if _, err := branchcost.Run(prog, b.Input(0), ev.Hook(), branchcost.RunConfig{}); err != nil {
		panic(err)
	}
	fmt.Printf("accuracy in (0.5, 1): %v\n", ev.S.Accuracy() > 0.5 && ev.S.Accuracy() < 1)
	// Output:
	// accuracy in (0.5, 1): true
}
