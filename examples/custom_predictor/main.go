// Custom predictor: register a user-defined scheme and race it against the
// paper's three schemes on a suite benchmark.
//
// The custom scheme here is a two-level adaptive predictor (a per-branch
// history register indexing a table of 2-bit counters — the direction of
// research that followed the paper by a few years), bolted onto a BTB for
// targets. It illustrates both halves of the extension API: the Predictor
// interface (Name / Predict / Update / Reset) and the scheme registry
// (RegisterScheme + Config.Schemes). Registered schemes ride the engine's
// record-once/replay-many pipeline: the benchmark executes once, and every
// scheme — built-in and custom — scores by replaying the recorded trace.
// An external predictor needs only the four Predictor methods: the
// built-in schemes also implement predict.Stepper (one call per branch) or
// predict.Stateless (scored from the trace's event counts), but both are
// optional speed-ups, and a predictor without them scores the same.
package main

import (
	"fmt"
	"log"

	"branchcost"
)

// TwoLevel is a local-history two-level adaptive predictor with a
// direct-mapped target buffer.
type TwoLevel struct {
	histBits int
	hist     map[int32]uint32 // per-branch history register
	pht      map[uint64]uint8 // (branch, history) -> 2-bit counter
	targets  map[int32]int32  // last seen taken target
}

// NewTwoLevel returns a two-level predictor with histBits of local history.
func NewTwoLevel(histBits int) *TwoLevel {
	p := &TwoLevel{histBits: histBits}
	p.Reset()
	return p
}

// Name implements branchcost.Predictor.
func (p *TwoLevel) Name() string { return fmt.Sprintf("two-level(%d)", p.histBits) }

func (p *TwoLevel) key(pc int32) uint64 {
	return uint64(pc)<<16 | uint64(p.hist[pc]&(1<<p.histBits-1))
}

// Predict implements branchcost.Predictor.
func (p *TwoLevel) Predict(ev branchcost.BranchEvent) branchcost.Prediction {
	ctr, seen := p.pht[p.key(ev.PC)]
	taken := ctr >= 2
	target, haveTarget := p.targets[ev.PC]
	if !haveTarget {
		target = -1
	}
	return branchcost.Prediction{Taken: taken, Target: target, Hit: seen}
}

// Update implements branchcost.Predictor.
func (p *TwoLevel) Update(ev branchcost.BranchEvent) {
	k := p.key(ev.PC)
	ctr := p.pht[k]
	if ev.Taken {
		if ctr < 3 {
			ctr++
		}
		p.targets[ev.PC] = ev.Target
	} else if ctr > 0 {
		ctr--
	}
	p.pht[k] = ctr
	h := p.hist[ev.PC] << 1
	if ev.Taken {
		h |= 1
	}
	p.hist[ev.PC] = h
}

// Reset implements branchcost.Predictor.
func (p *TwoLevel) Reset() {
	p.hist = map[int32]uint32{}
	p.pht = map[uint64]uint8{}
	p.targets = map[int32]int32{}
}

func main() {
	// Register one scheme per history width. The constructor runs once per
	// evaluation, so every benchmark gets a fresh predictor.
	custom := []string{}
	for _, bits := range []int{2, 4, 8} {
		bits := bits
		name := fmt.Sprintf("two-level-%d", bits)
		custom = append(custom, name)
		branchcost.RegisterScheme(branchcost.Scheme{
			Name:        name,
			Description: fmt.Sprintf("local-history two-level adaptive predictor, %d history bits", bits),
			New:         func(branchcost.SchemeContext) branchcost.Predictor { return NewTwoLevel(bits) },
		})
	}

	bench, err := branchcost.BenchmarkByName("yacc")
	if err != nil {
		log.Fatal(err)
	}
	prog, err := bench.Program()
	if err != nil {
		log.Fatal(err)
	}
	inputs := bench.Inputs()

	// One evaluation scores the paper's schemes and the custom ones over
	// the same recorded branch stream.
	eval, err := branchcost.Evaluate(bench.Name, prog, inputs, inputs, branchcost.Config{
		Schemes: append(branchcost.DefaultSchemes(), custom...),
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("benchmark %s: %d dynamic branches\n\n", bench.Name, eval.Summary.Branches)
	fmt.Printf("%-16s %9s\n", "scheme", "accuracy")
	for _, name := range eval.Order {
		fmt.Printf("%-16s %8.2f%%\n", name, 100*eval.Scheme(name).Stats.Accuracy())
	}
	fmt.Println("\n(History-based prediction beating all three schemes is exactly the")
	fmt.Println("trajectory branch prediction research took after 1989.)")
}
