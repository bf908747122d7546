package oracle

import (
	"context"
	"fmt"

	"branchcost/internal/attr"
	"branchcost/internal/predict"
	"branchcost/internal/tracefile"
	"branchcost/internal/vm"
)

// Divergence is the first branch event on which a scheme and its oracle
// twin disagreed: which scheme, how far into the stream, the event itself
// (its PC locates the static branch site), and both answers.
type Divergence struct {
	Scheme string
	Step   int64 // 0-based index into the replayed branch stream
	Event  vm.BranchEvent
	Got    predict.Prediction // the scheme under test
	Want   predict.Prediction // the oracle reference model
}

// Error renders the located divergence report.
func (d *Divergence) Error() string {
	return fmt.Sprintf(
		"oracle: scheme %q diverged at step %d, site pc=%d (op %v, taken=%v): got {taken=%v target=%d hit=%v}, oracle says {taken=%v target=%d hit=%v}",
		d.Scheme, d.Step, d.Event.PC, d.Event.Op, d.Event.Taken,
		d.Got.Taken, d.Got.Target, d.Got.Hit,
		d.Want.Taken, d.Want.Target, d.Want.Hit)
}

// agree reports whether two predictions would steer the fetch unit (and
// the evaluator's bookkeeping) identically: direction and buffer-hit state
// must match, and the target matters only for predicted-taken branches.
func agree(a, b predict.Prediction) bool {
	if a.Taken != b.Taken || a.Hit != b.Hit {
		return false
	}
	return !a.Taken || a.Target == b.Target
}

// lockstep drives one branch event through scheme and oracle, recording the
// first disagreement and accumulating independently-counted statistics. The
// counting here deliberately re-implements predict.Evaluator's correctness
// rule from its specification, so the evaluator itself is inside the
// differential net (VerifyTrace cross-checks the two counts). A scheme that
// is a predict.Stepper is driven through Step, as the evaluator drives it,
// so the one-call path is checked against the twin's Predict and Update.
type lockstep struct {
	name   string
	scheme predict.Predictor
	oracle predict.Predictor
	step   int64
	stats  predict.Stats
	div    *Divergence
}

func (ls *lockstep) observe(ev vm.BranchEvent) {
	if !ev.Op.IsBranch() {
		return
	}
	var got predict.Prediction
	st, step := ls.scheme.(predict.Stepper)
	if step {
		got = st.Step(ev)
	} else {
		got = ls.scheme.Predict(ev)
	}
	want := ls.oracle.Predict(ev)
	if ls.div == nil && !agree(got, want) {
		ls.div = &Divergence{Scheme: ls.name, Step: ls.step, Event: ev, Got: got, Want: want}
	}
	ls.stats.Branches++
	if want.Hit {
		ls.stats.Hits++
	} else {
		ls.stats.Misses++
	}
	right := want.Taken == ev.Taken
	if right {
		ls.stats.DirRight++
	}
	fullyCorrect := right && (!want.Taken || want.Target == ev.Target)
	if fullyCorrect {
		ls.stats.Correct++
	}
	if ev.Op.IsCondBranch() {
		ls.stats.CondBranches++
		if fullyCorrect {
			ls.stats.CondCorrect++
		}
	}
	if !step {
		ls.scheme.Update(ev)
	}
	ls.oracle.Update(ev)
	ls.step++
}

// CheckEvents replays a raw event slice through scheme and oracle in
// lockstep. It returns the oracle-counted statistics and the first
// divergence (nil when the two implementations agree on every event).
// Replay continues past a divergence so the stats stay comparable, but
// only the first disagreement is reported — after it the two models'
// internal states are legitimately different.
func CheckEvents(name string, events []vm.BranchEvent, scheme, oracle predict.Predictor) (predict.Stats, *Divergence) {
	ls := &lockstep{name: name, scheme: scheme, oracle: oracle}
	for _, ev := range events {
		ls.observe(ev)
	}
	return ls.stats, ls.div
}

// CheckTrace is CheckEvents over a recorded trace.
func CheckTrace(name string, tr *tracefile.Trace, scheme, oracle predict.Predictor) (predict.Stats, *Divergence) {
	ls := &lockstep{name: name, scheme: scheme, oracle: oracle}
	tr.Replay(ls.observe)
	return ls.stats, ls.div
}

// Verdict is one scheme's verification outcome over one trace.
type Verdict struct {
	Scheme string
	Events int64
	Stats  predict.Stats // independently counted by the oracle engine

	// Div is the first scheme/oracle divergence; Err carries any other
	// failure (evaluator count mismatch, inconsistent statistics). Both nil
	// means verified; Skipped non-empty means the scheme was not checkable
	// on a bare trace and names why.
	Div     *Divergence
	Err     error
	Skipped string
}

// OK reports whether the scheme verified cleanly.
func (v Verdict) OK() bool { return v.Div == nil && v.Err == nil && v.Skipped == "" }

// VerifyTrace runs every registered scheme a bare trace can score against
// its oracle twin: schemes needing program context or a transformed binary
// are skipped (a trace file alone cannot reconstruct them), as are schemes
// no reference model exists for — new registry entries start life skipped
// and should gain an oracle model to join the gate. Each checked scheme is
// additionally scored through predict.Evaluator and the two independently
// produced statistics compared, so the evaluator's bookkeeping is verified
// along with the predictor.
func VerifyTrace(tr *tracefile.Trace, configs predict.ConfigSet) []Verdict {
	var out []Verdict
	for _, name := range predict.Names() {
		out = append(out, verifyScheme(name, tr, configs))
	}
	return out
}

func verifyScheme(name string, tr *tracefile.Trace, configs predict.ConfigSet) Verdict {
	v := Verdict{Scheme: name, Events: int64(tr.Len())}
	sc, ok := predict.Lookup(name)
	if !ok {
		v.Skipped = "not registered"
		return v
	}
	if sc.NeedsContext || sc.Transformed {
		v.Skipped = "needs program context"
		return v
	}
	ref, ok := For(name, configs.Resolved(name), nil)
	if !ok {
		v.Skipped = "no oracle reference model"
		return v
	}
	stats, div := CheckTrace(name, tr, sc.New(predict.SchemeContext{Configs: configs}), ref)
	v.Stats, v.Div = stats, div
	if v.Div != nil {
		return v
	}
	if err := CheckStats(stats); err != nil {
		v.Err = fmt.Errorf("oracle: scheme %q: %w", name, err)
		return v
	}
	// Cross-check the production evaluator's counting against the naive
	// count above: same trace, fresh predictors, scored the way core scores
	// them, must agree bit for bit. One evaluator carries an attribution
	// recorder, so it replays event by event, and the per-site / per-window
	// decomposition is verified against both independent counts: sites plus
	// overflow must sum exactly to the aggregate Stats. The other has no
	// observer, so a stateless scheme scores from the trace's histogram.
	rec := attr.NewRecorder(attr.Options{})
	evs := []*predict.Evaluator{
		{P: sc.New(predict.SchemeContext{Configs: configs}), Obs: rec},
		{P: sc.New(predict.SchemeContext{Configs: configs})},
	}
	if err := tracefile.Score(context.Background(), tr, evs); err != nil {
		v.Err = fmt.Errorf("oracle: scheme %q: %w", name, err)
		return v
	}
	for _, e := range evs {
		if e.S != stats {
			v.Err = fmt.Errorf(
				"oracle: scheme %q: predict.Evaluator counted %+v, oracle counted %+v",
				name, e.S, stats)
			return v
		}
	}
	if err := rec.Check(stats); err != nil {
		v.Err = fmt.Errorf("oracle: scheme %q: %w", name, err)
	}
	return v
}
