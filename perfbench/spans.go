package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// layer's exported entry point. Spans of one benchmark evaluation or one
// request share Op; Parent is the enclosing span's ID (-1 for a root).
type span struct {
	ID     int
	Parent int
	Op     string
	Name   string
	Lane   int // worker or client goroutine, the Chrome trace "tid"
	Start  time.Duration
	End    time.Duration
}

// tracer keeps spans in memory until the run ends. The disabled tracer
// (untraced runs) records nothing: begin returns -1 and end ignores it.
type tracer struct {
	on     bool
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, origin: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(op, name string, parent, lane int) int {
	if !t.on {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Lane: lane, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerStat is one span name's totals over a run.
type layerStat struct {
	Count   int     `json:"count"`
	TotalS  float64 `json:"total_s"`
	SelfS   float64 `json:"self_s"`
	MedianS float64 `json:"median_s"`
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its child spans cover.
func selfTimes(spans []span) []time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(a, b int) bool { return ch[a].Start < ch[b].Start })
		covered, cur := time.Duration(0), s.Start
		for _, c := range ch {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// summarize folds spans into per-name totals.
func summarize(spans []span) layerSummary {
	self := selfTimes(spans)
	durs := map[string][]float64{}
	out := layerSummary{}
	for i, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		d := (s.End - s.Start).Seconds()
		st.Count++
		st.TotalS += d
		st.SelfS += self[i].Seconds()
		durs[s.Name] = append(durs[s.Name], d)
	}
	for n, st := range out {
		st.MedianS = median(durs[n])
	}
	return out
}

// writeChromeTrace writes spans as Chrome trace-event JSON (complete "X"
// events, microsecond timestamps), which Perfetto and chrome://tracing open.
func writeChromeTrace(w io.Writer, spans []span, meta any) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, len(spans))
	for i, s := range spans {
		evs[i] = event{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			TS:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.Lane,
			Args: map[string]any{"op": s.Op, "id": s.ID, "parent": s.Parent},
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     evs,
		"displayTimeUnit": "ms",
		"otherData":       meta,
	})
}

// layerOf is a span name's layer: the text before its first dot.
func layerOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}
