package experiments

import (
	"context"
	"fmt"
	"sort"

	"branchcost/internal/attr"
	"branchcost/internal/core"
	"branchcost/internal/stats"
)

// Attribution is the suite-level mispredict forensics report: per scheme, the
// worst mispredicting sites aggregated across benchmarks, plus the overlap
// analysis — which sites defeat every scored scheme (structurally hard
// branches no prediction strategy captures) versus sites only one scheme
// loses on (scheme-specific weaknesses, e.g. BTB capacity evictions).
type Attribution struct {
	Schemes []SchemeAttribution `json:"schemes"`

	// SharedSites are sites among every scheme's top-K that mispredict under
	// all scored schemes; UniqueSites lists, per scheme, top-K sites no other
	// scheme has in its own top-K. Both orderings are deterministic.
	SharedSites []OverlapSite `json:"shared_sites,omitempty"`
	UniqueSites []OverlapSite `json:"unique_sites,omitempty"`
}

// SchemeAttribution is one scheme's suite-aggregated summary.
type SchemeAttribution struct {
	Scheme  string        `json:"scheme"`
	Summary *attr.Summary `json:"summary"`
}

// OverlapSite is one (benchmark, instruction ID) site in the overlap
// analysis, with the schemes whose top-K it appears in and its worst
// observed mispredict count. Every scheme, the Forward Semantic included,
// is scored over the original binary's trace, so a site's PC and opcode are
// the original binary's whichever scheme ranked it.
type OverlapSite struct {
	Benchmark   string   `json:"benchmark"`
	ID          int32    `json:"id"`
	PC          int32    `json:"pc"` // in the original binary
	Op          string   `json:"op,omitempty"`
	Schemes     []string `json:"schemes"`
	Mispredicts int64    `json:"mispredicts"` // max across schemes
}

// AttributionReport aggregates per-benchmark attribution across the named
// benchmarks. The suite's Config.Attribution must be set (it is forced on a
// copy here if not): every evaluation then carries per-scheme summaries,
// which are merged per scheme and re-ranked to topK sites suite-wide.
func AttributionReport(ctx context.Context, s *Suite, names []string, topK int) (*Attribution, error) {
	if topK <= 0 {
		topK = attr.DefaultTopK
	}
	if s.Cfg.Attribution == nil {
		// The suite was built without attribution: re-evaluate under a
		// derived suite that records it, keeping the scheduling knobs. Cached
		// attribution-free evaluations cannot be upgraded in place.
		cfg := s.Cfg
		cfg.Attribution = &attr.Options{TopK: topK}
		derived := NewSuite(cfg)
		derived.Workers, derived.Deadline = s.Workers, s.Deadline
		derived.Retries, derived.RetryBackoff = s.Retries, s.RetryBackoff
		derived.Lookup = s.Lookup
		s = derived
	}
	evals, err := s.EvalNames(ctx, names)
	if err != nil {
		return nil, err
	}
	return BuildAttribution(evals, topK)
}

// BuildAttribution builds the report from completed evaluations that carry
// attribution (Eval.Attr). Evaluations without it are an error — silently
// producing an empty report would read as "no mispredicting sites".
func BuildAttribution(evals []*core.Eval, topK int) (*Attribution, error) {
	if topK <= 0 {
		topK = attr.DefaultTopK
	}
	merged := map[string]*attr.Summary{}
	var order []string
	for _, e := range evals {
		if e == nil {
			continue
		}
		if e.Attr == nil {
			return nil, fmt.Errorf("experiments: benchmark %s evaluated without attribution (set core.Config.Attribution)", e.Name)
		}
		for _, scheme := range e.Order {
			sum := e.Attr[scheme]
			if sum == nil {
				continue
			}
			// Label each site with its benchmark before cross-benchmark
			// merging: the same PC in different programs is a different branch.
			labeled := *sum
			labeled.TopSites = append([]attr.SiteSummary(nil), sum.TopSites...)
			for i := range labeled.TopSites {
				labeled.TopSites[i].Benchmark = sum.Benchmark
			}
			if agg, ok := merged[scheme]; ok {
				agg.Merge(&labeled)
			} else {
				cp := labeled
				cp.Benchmark = ""
				merged[scheme] = &cp
				order = append(order, scheme)
			}
		}
	}
	rep := &Attribution{}
	for _, scheme := range order {
		sum := merged[scheme]
		sum.Rerank(topK)
		rep.Schemes = append(rep.Schemes, SchemeAttribution{Scheme: scheme, Summary: sum})
	}
	rep.SharedSites, rep.UniqueSites = overlap(rep.Schemes)
	return rep, nil
}

// overlap partitions the union of every scheme's top-K sites into the shared
// set (present in every scheme's top-K) and the per-scheme unique sets
// (present in exactly one), keyed by (benchmark, instruction ID).
func overlap(schemes []SchemeAttribution) (shared, unique []OverlapSite) {
	type key struct {
		bench string
		id    int32
	}
	seen := map[key]*OverlapSite{}
	var keys []key
	for _, sa := range schemes {
		for _, site := range sa.Summary.TopSites {
			k := key{site.Benchmark, site.ID}
			o, ok := seen[k]
			if !ok {
				o = &OverlapSite{Benchmark: site.Benchmark, ID: site.ID, PC: site.PC, Op: site.Op}
				seen[k] = o
				keys = append(keys, k)
			}
			o.Schemes = append(o.Schemes, sa.Scheme)
			if site.Mispredicts > o.Mispredicts {
				o.Mispredicts = site.Mispredicts
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := seen[keys[i]], seen[keys[j]]
		if a.Mispredicts != b.Mispredicts {
			return a.Mispredicts > b.Mispredicts
		}
		if a.Benchmark != b.Benchmark {
			return a.Benchmark < b.Benchmark
		}
		return a.ID < b.ID
	})
	for _, k := range keys {
		o := seen[k]
		switch {
		case len(o.Schemes) == len(schemes) && len(schemes) > 1:
			shared = append(shared, *o)
		case len(o.Schemes) == 1:
			unique = append(unique, *o)
		}
	}
	return shared, unique
}

// Table renders the report: one suite-wide top-sites table per scheme, then
// the overlap partition.
func (a *Attribution) Table() *stats.Table {
	t := stats.NewTable("Mispredict attribution (suite top sites)",
		"scheme", "benchmark", "pc", "op", "mispredicts", "share", "rate")
	for _, sa := range a.Schemes {
		for _, site := range sa.Summary.TopSites {
			t.AddRow(sa.Scheme, site.Benchmark, fmt.Sprint(site.PC), site.Op,
				stats.Count(site.Mispredicts), stats.Pct(site.MispredictShare), stats.F3(site.Rate))
		}
		t.AddRule()
	}
	return t
}

// OverlapTable renders the shared-vs-unique site partition.
func (a *Attribution) OverlapTable() *stats.Table {
	t := stats.NewTable("Site overlap: defeats-all vs scheme-specific",
		"class", "benchmark", "site id", "op", "schemes", "worst mispredicts")
	for _, o := range a.SharedSites {
		t.AddRow("all-schemes", o.Benchmark, fmt.Sprint(o.ID), o.Op,
			fmt.Sprint(len(o.Schemes)), stats.Count(o.Mispredicts))
	}
	if len(a.SharedSites) > 0 && len(a.UniqueSites) > 0 {
		t.AddRule()
	}
	for _, o := range a.UniqueSites {
		t.AddRow("only:"+o.Schemes[0], o.Benchmark, fmt.Sprint(o.ID), o.Op,
			fmt.Sprint(len(o.Schemes)), stats.Count(o.Mispredicts))
	}
	return t
}
