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

// output computes the dot product of the row's weights with the history
// (bit j of hist = outcome of the j+1-th most recent conditional branch,
// mapped to ±1).
func (p *Perceptron) output(pc int32) int32 {
	row := p.w[uint32(pc)&p.tmask]
	y := row[0]
	for i := 1; i <= p.histLen; i++ {
		if histBit(p.hist, i-1) {
			y += row[i]
		} else {
			y -= row[i]
		}
	}
	return y
}

// Name implements predict.Predictor.
func (p *Perceptron) Name() string { return "perceptron" }

// Predict implements predict.Predictor.
func (p *Perceptron) Predict(ev vm.BranchEvent) predict.Prediction {
	target, hit := p.cache.lookup(ev.PC)
	taken := true
	if ev.Op.IsCondBranch() {
		taken = p.output(ev.PC) >= 0
	}
	if taken {
		return predict.Prediction{Taken: true, Target: target, Hit: hit}
	}
	return predict.Prediction{Taken: false, Hit: hit}
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

// Update implements predict.Predictor. The history is unchanged between
// Predict and Update, so recomputing the output here sees the same value
// the prediction used.
func (p *Perceptron) Update(ev vm.BranchEvent) {
	if ev.Op.IsCondBranch() {
		y := p.output(ev.PC)
		pred := y >= 0
		mag := y
		if mag < 0 {
			mag = -mag
		}
		if pred != ev.Taken || mag <= p.theta {
			row := p.w[uint32(ev.PC)&p.tmask]
			t := int32(-1)
			if ev.Taken {
				t = 1
			}
			row[0] = p.clamp(row[0] + t)
			for i := 1; i <= p.histLen; i++ {
				x := int32(-1)
				if histBit(p.hist, i-1) {
					x = 1
				}
				row[i] = p.clamp(row[i] + t*x)
			}
		}
		p.hist = pushBit(p.hist, ev.Taken)
	}
	p.cache.update(ev)
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
