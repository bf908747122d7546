package history

import (
	"branchcost/internal/predict"
	"branchcost/internal/vm"
)

// Perceptron is Jiménez/Lin's perceptron predictor: each table row is a
// weight vector (bias plus one weight per history bit); the prediction is
// the sign of the dot product with the global history, and training bumps
// the weights toward the outcome whenever the prediction was wrong or the
// magnitude fell below the training threshold θ.
type Perceptron struct {
	histLen    int
	tableLog   int
	weightBits int

	theta      int32
	wmin, wmax int32
	tmask      uint32

	hist  uint32
	w     [][]int32 // row -> [bias, w_1..w_histLen]
	cache targetCache
}

// NewPerceptron returns a perceptron predictor with 1<<tableLog rows of
// histLen+1 weights, each weightBits bits wide (two's complement).
func NewPerceptron(histLen, tableLog, weightBits, targetEntries, targetAssoc int) *Perceptron {
	mustValidate(predict.PerceptronConfig{
		History: histLen, Table: tableLog, WeightBits: weightBits,
		TargetEntries: targetEntries, TargetAssoc: targetAssoc,
	})
	rows := 1 << uint(tableLog)
	w := make([][]int32, rows)
	for i := range w {
		w[i] = make([]int32, histLen+1)
	}
	return &Perceptron{
		histLen: histLen, tableLog: tableLog, weightBits: weightBits,
		theta: Theta(histLen),
		wmin:  -(int32(1) << uint(weightBits-1)),
		wmax:  int32(1)<<uint(weightBits-1) - 1,
		tmask: lowMask(tableLog),
		w:     w,
		cache: newTargetCache(targetEntries, targetAssoc),
	}
}

// Theta is the training threshold from the perceptron paper, θ = 1.93h + 14,
// computed in integer arithmetic so every implementation agrees bit-exactly.
func Theta(histLen int) int32 {
	return int32((193*histLen + 1400) / 100)
}

// output computes the dot product of row's weights with the history (bit j
// of hist = outcome of the j+1-th most recent conditional branch, mapped to
// ±1), without a branch per bit: s is 0 for a set bit and -1 for a clear
// one, and (w^s)-s is then w or -w.
func (p *Perceptron) output(row []int32) int32 {
	y, h := row[0], p.hist
	for _, w := range row[1:] {
		s := int32(h&1) - 1
		y += (w ^ s) - s
		h >>= 1
	}
	return y
}

// Name implements predict.Predictor.
func (p *Perceptron) Name() string { return "perceptron" }

func (p *Perceptron) row(pc int32) []int32 { return p.w[uint32(pc)&p.tmask] }

// Predict implements predict.Predictor.
func (p *Perceptron) Predict(ev vm.BranchEvent) predict.Prediction {
	target, hit := p.cache.lookup(ev.PC)
	return prediction(!ev.Op.IsCondBranch() || p.output(p.row(ev.PC)) >= 0, target, hit)
}

func (p *Perceptron) clamp(v int32) int32 {
	if v < p.wmin {
		return p.wmin
	}
	if v > p.wmax {
		return p.wmax
	}
	return v
}

// Update implements predict.Predictor.
func (p *Perceptron) Update(ev vm.BranchEvent) { p.Step(ev) }

// Step implements predict.Stepper: one target-cache lookup, and one dot
// product that both predicts and decides whether to train.
func (p *Perceptron) Step(ev vm.BranchEvent) predict.Prediction {
	target, hit := p.cache.step(ev)
	taken := true
	if ev.Op.IsCondBranch() {
		row := p.row(ev.PC)
		y := p.output(row)
		taken = y >= 0
		mag := y
		if mag < 0 {
			mag = -mag
		}
		if taken != ev.Taken || mag <= p.theta {
			// Move every weight by t toward the outcome, signed by its
			// history bit as output signs it.
			t := int32(-1)
			if ev.Taken {
				t = 1
			}
			row[0] = p.clamp(row[0] + t)
			h := p.hist
			for i := 1; i < len(row); i++ {
				s := int32(h&1) - 1
				row[i] = p.clamp(row[i] + (t ^ s) - s)
				h >>= 1
			}
		}
		p.hist = pushBit(p.hist, ev.Taken)
	}
	return prediction(taken, target, hit)
}

// Reset implements predict.Predictor.
func (p *Perceptron) Reset() {
	p.hist = 0
	for _, row := range p.w {
		for i := range row {
			row[i] = 0
		}
	}
	p.cache.reset()
}

// StorageBits implements predict.StorageSized: the history register, the
// weight table and the target cache.
func (p *Perceptron) StorageBits() int64 {
	return int64(p.histLen) +
		int64(len(p.w))*int64(p.histLen+1)*int64(p.weightBits) +
		p.cache.storageBits()
}

// Metrics implements predict.MetricSource.
func (p *Perceptron) Metrics() map[string]int64 {
	m := p.cache.metrics()
	m["storage_bits"] = p.StorageBits()
	return m
}
