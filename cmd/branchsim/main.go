// Command branchsim regenerates the paper's evaluation: Tables 1–5,
// Figures 3–4, the introduction's headline comparison, and the ablations.
//
// Usage:
//
//	branchsim -all                 # everything (default when no flag given)
//	branchsim -table 3             # one table (1..5)
//	branchsim -figure 3            # one figure (3 or 4)
//	branchsim -headline            # the introduction's cycles/branch numbers
//	branchsim -ablate counter      # counter|btbsize|assoc|ctxswitch|static|cycle|scaling
//	branchsim -bench grep -table 3 # restrict ablations to one benchmark
//	branchsim -frontend -width 1,2,4,8   # frontend sweep: cost, utilization, IPC
//	branchsim -frontend-check            # model-vs-pipesim agreement, all benchmarks
//	branchsim -pareto -pareto-json pareto.json   # storage-vs-accuracy frontier
//	branchsim -modern                    # adversarial workload classes vs the scheme zoo
//	branchsim -bench modern -pareto      # -bench accepts groups: primary|all|modern|everything|<class>
//	branchsim -scheme-opt gshare.history=14 -ablate pareto  # per-scheme override
//	branchsim -attr -topk 10 -attr-json attr.json  # mispredict attribution report
//
// Hardware configuration knobs default to the paper's configuration:
// -entries and -assoc shape both BTBs, -bits and -threshold the CBTB's
// counter, -slots the measured FS binary. -scheme-opt scheme.key=value
// (repeatable) overrides any registered scheme's typed configuration,
// winning over the BTB knobs. A configuration no predictor can be built
// from exits 2 before any evaluation runs. -width selects the fetch widths
// of the frontend sweep/check (default 1,2,4,8).
//
// -corpus DIR (default $BRANCHCOST_CORPUS) evaluates through the disk-backed
// trace corpus: benchmarks with a matching entry replay from disk instead of
// re-executing, and missing entries are recorded on first use.
//
// Robustness knobs: -deadline bounds each benchmark's evaluation wall clock,
// -max-steps bounds each VM run, and -partial degrades instead of dying —
// failed experiments are skipped and reported at the end (exit status 1),
// transient corpus I/O earns a bounded retry, and the -metrics report carries
// the structured failure list alongside the surviving manifests.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"branchcost/internal/attr"
	"branchcost/internal/core"
	"branchcost/internal/corpus"
	"branchcost/internal/experiments"
	"branchcost/internal/pipesim"
	"branchcost/internal/predict"
	"branchcost/internal/stats"
	"branchcost/internal/telemetry"
	"branchcost/internal/workloads"
)

// multiFlag is a repeatable string flag (for -scheme-opt).
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error {
	*m = append(*m, s)
	return nil
}

func main() {
	var (
		table    = flag.Int("table", 0, "regenerate one table (1..5)")
		figure   = flag.Int("figure", 0, "regenerate one figure (3 or 4)")
		headline = flag.Bool("headline", false, "regenerate the introduction's comparison")
		ablate   = flag.String("ablate", "", "ablation: counter|btbsize|assoc|ctxswitch|static|cycle|scaling|crossval|icache|delay|opt|hwcost|sensitivity|traces|frontend|pareto")
		all      = flag.Bool("all", false, "regenerate everything")
		benchSel = flag.String("bench", "", "comma-separated benchmark subset for ablations (default: all primary)")

		entries    = flag.Int("entries", 256, "SBTB and CBTB entries")
		assoc      = flag.Int("assoc", 256, "SBTB and CBTB associativity")
		bits       = flag.Int("bits", 2, "CBTB counter bits")
		threshold  = flag.Int("threshold", -1, "CBTB counter threshold (-1: auto, the counter midpoint)")
		slots      = flag.Int("slots", 2, "forward slots (k+l) for the measured FS binary")
		widthSel   = flag.String("width", "", "comma-separated fetch widths for -frontend/-frontend-check (default 1,2,4,8)")
		frontend   = flag.Bool("frontend", false, "run the frontend cost-model sweep across fetch widths")
		frontCk    = flag.Bool("frontend-check", false, "assert model-vs-pipesim agreement on every benchmark (exit 1 on violation)")
		pareto     = flag.Bool("pareto", false, "run the storage-vs-accuracy Pareto sweep over the predictor zoo")
		modern     = flag.Bool("modern", false, "run the modern/adversarial workload classes against the scheme zoo")
		paretoJSON = flag.String("pareto-json", "", "with -pareto: also write the frontier rows as JSON to this file")
		attrRep    = flag.Bool("attr", false, "run the suite-wide mispredict attribution report (per-site + scheme overlap)")
		attrJSON   = flag.String("attr-json", "", "with -attr: also write the attribution report as JSON to this file")
		topK       = flag.Int("topk", attr.DefaultTopK, "with -attr: worst sites to keep per scheme")
		timing     = flag.Bool("time", false, "print wall-clock time per experiment")
		format     = flag.String("format", "text", "table output format: text|csv|md")
		corpusDir  = flag.String("corpus", os.Getenv(corpus.EnvVar), "trace corpus directory (default $BRANCHCOST_CORPUS; empty disables)")

		deadline = flag.Duration("deadline", 0, "per-benchmark evaluation deadline, e.g. 30s (0 disables)")
		maxSteps = flag.Int64("max-steps", 0, "per-run VM step budget; a run that exceeds it fails (0 = default budget)")
		partial  = flag.Bool("partial", false, "degrade don't die: keep running past failed experiments and report every failure at the end")
	)
	var schemeOpts multiFlag
	flag.Var(&schemeOpts, "scheme-opt", "per-scheme option override, scheme.key=value (repeatable, e.g. -scheme-opt tage.tables=5)")
	tf := telemetry.RegisterFlags(flag.CommandLine)
	flag.Parse()
	set, err := tf.Init()
	if err != nil {
		fmt.Fprintf(os.Stderr, "branchsim: %v\n", err)
		os.Exit(1)
	}

	outputFormat = *format
	cfg := core.Config{
		EvalSlots:  slots,
		Telemetry:  set,
		MaxVMSteps: *maxSteps,
	}
	if cfg.SchemeConfigs, err = predict.FlagConfigs(*entries, *assoc, *bits, *threshold, schemeOpts); err != nil {
		fmt.Fprintf(os.Stderr, "branchsim: %v\n", err)
		os.Exit(2)
	}
	if *attrRep || *attrJSON != "" {
		// Record attribution up front so the suite's cached evaluations carry
		// it, instead of AttributionReport re-evaluating under a derived suite.
		cfg.Attribution = &attr.Options{TopK: *topK}
	}
	if *corpusDir != "" {
		store, err := corpus.Open(*corpusDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "branchsim: %v\n", err)
			os.Exit(1)
		}
		cfg.Corpus = store
	}
	suite := experiments.NewSuite(cfg)
	suite.Deadline = *deadline
	if *partial {
		// Degraded mode also buys transient corpus I/O errors a bounded retry.
		suite.Retries = 2
	}

	names := benchNames(*benchSel)

	widths, err := pipesim.ParseWidths(*widthSel) // nil: experiments sweep FrontendWidths
	if err != nil {
		fmt.Fprintf(os.Stderr, "branchsim: %v\n", err)
		os.Exit(2)
	}

	nothing := *table == 0 && *figure == 0 && !*headline && *ablate == "" && !*all &&
		!*frontend && !*frontCk && !*pareto && !*modern && !*attrRep && *attrJSON == ""
	if nothing {
		*all = true
	}

	degraded := false
	run := func(label string, f func() (string, error)) {
		start := time.Now()
		text, err := f()
		if err != nil {
			if *partial {
				// Degrade, don't die: the failure is reported (and repeated in
				// the summary below), the remaining experiments still run.
				fmt.Fprintf(os.Stderr, "branchsim: %s: %v (continuing: -partial)\n", label, err)
				degraded = true
				return
			}
			fmt.Fprintf(os.Stderr, "branchsim: %s: %v\n", label, err)
			os.Exit(1)
		}
		fmt.Println(text)
		if *timing {
			fmt.Printf("[%s took %v]\n\n", label, time.Since(start).Round(time.Millisecond))
		}
	}

	tables := map[int]func() (string, error){
		1: func() (string, error) { _, t, err := experiments.Table1(suite); return render(t, err) },
		2: func() (string, error) { _, t, err := experiments.Table2(suite); return render(t, err) },
		3: func() (string, error) { _, t, err := experiments.Table3(suite); return render(t, err) },
		4: func() (string, error) { _, t, err := experiments.Table4(suite); return render(t, err) },
		5: func() (string, error) { _, t, err := experiments.Table5(suite); return render(t, err) },
	}
	figures := map[int][]int{3: {1, 2}, 4: {4, 8}}

	if *all || *table > 0 {
		for i := 1; i <= 5; i++ {
			if *all || *table == i {
				run(fmt.Sprintf("table %d", i), tables[i])
			}
		}
	}
	if *all || *figure > 0 {
		for _, fig := range []int{3, 4} {
			if *all || *figure == fig {
				for _, k := range figures[fig] {
					k := k
					run(fmt.Sprintf("figure %d (k=%d)", fig, k), func() (string, error) {
						_, text, err := experiments.Figure(suite, k, 8)
						return text, err
					})
				}
			}
		}
	}
	if *all || *headline {
		run("headline", func() (string, error) {
			_, t, err := experiments.Headline(suite)
			return render(t, err)
		})
		run("scaling", func() (string, error) {
			_, t, err := experiments.Scaling(suite)
			return render(t, err)
		})
	}

	if *frontend {
		run("frontend sweep", func() (string, error) {
			_, t, err := experiments.FrontendSweep(suite, names, widths)
			return render(t, err)
		})
	}
	if *modern {
		run("modern classes", func() (string, error) {
			_, t, err := experiments.ModernSuite(suite)
			return render(t, err)
		})
	}
	if *pareto || (*all && *paretoJSON != "") {
		run("pareto", func() (string, error) {
			rows, t, err := experiments.Pareto(suite, names)
			if err != nil {
				return "", err
			}
			if *paretoJSON != "" {
				f, err := os.Create(*paretoJSON)
				if err != nil {
					return "", err
				}
				werr := experiments.WriteParetoJSON(f, rows)
				if cerr := f.Close(); werr == nil {
					werr = cerr
				}
				if werr != nil {
					return "", werr
				}
			}
			return render(t, nil)
		})
	}
	if *attrRep || *attrJSON != "" {
		run("attribution", func() (string, error) {
			rep, err := experiments.AttributionReport(context.Background(), suite, names, *topK)
			if err != nil {
				return "", err
			}
			if *attrJSON != "" {
				f, err := os.Create(*attrJSON)
				if err != nil {
					return "", err
				}
				enc := json.NewEncoder(f)
				enc.SetIndent("", "  ")
				werr := enc.Encode(rep)
				if cerr := f.Close(); werr == nil {
					werr = cerr
				}
				if werr != nil {
					return "", werr
				}
			}
			sites, err := rep.Table().Render(outputFormat)
			if err != nil {
				return "", err
			}
			overlap, err := rep.OverlapTable().Render(outputFormat)
			if err != nil {
				return "", err
			}
			return sites + "\n\n" + overlap, nil
		})
	}
	if *frontCk {
		// The check covers every benchmark (Table 5's extras included) — it
		// is the acceptance gate of the frontend models, not a sample.
		var all []string
		for _, b := range workloads.All() {
			all = append(all, b.Name)
		}
		_, t, err := experiments.FrontendCheck(suite, all, widths)
		if t != nil {
			if text, rerr := t.Render(outputFormat); rerr == nil {
				fmt.Println(text)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "branchsim: frontend check: %v\n", err)
			os.Exit(1)
		}
	}

	ablations := map[string]func() (string, error){
		"counter": func() (string, error) { _, t, err := experiments.CounterSweep(suite, names); return render(t, err) },
		"btbsize": func() (string, error) { _, t, err := experiments.SizeSweep(suite, names); return render(t, err) },
		"assoc":   func() (string, error) { _, t, err := experiments.AssocSweep(suite, names); return render(t, err) },
		"ctxswitch": func() (string, error) {
			_, t, err := experiments.ContextSwitch(suite, names)
			return render(t, err)
		},
		"static": func() (string, error) { _, t, err := experiments.StaticSchemes(suite, names); return render(t, err) },
		"cycle":  func() (string, error) { _, t, err := experiments.CycleCheck(suite, names); return render(t, err) },
		"scaling": func() (string, error) {
			_, t, err := experiments.Scaling(suite)
			return render(t, err)
		},
		"crossval": func() (string, error) { _, t, err := experiments.CrossVal(suite, names); return render(t, err) },
		"icache": func() (string, error) {
			_, t, err := experiments.ICache(suite, names, []int{2, 4, 8})
			return render(t, err)
		},
		"delay": func() (string, error) {
			_, t, err := experiments.DelayedBranch(suite, names, 2, 1)
			return render(t, err)
		},
		"opt": func() (string, error) { _, t, err := experiments.Optimizer(names); return render(t, err) },
		"hwcost": func() (string, error) {
			_, t, err := experiments.HardwareCost(suite, names)
			return render(t, err)
		},
		"sensitivity": func() (string, error) {
			_, t, err := experiments.Sensitivity(suite, names, 3)
			return render(t, err)
		},
		"traces": func() (string, error) {
			_, t, err := experiments.TraceSelection(suite, names)
			return render(t, err)
		},
		"frontend": func() (string, error) {
			_, t, err := experiments.FrontendSweep(suite, names, widths)
			return render(t, err)
		},
		"pareto": func() (string, error) {
			_, t, err := experiments.Pareto(suite, names)
			return render(t, err)
		},
	}
	if *ablate != "" {
		f, ok := ablations[*ablate]
		if !ok {
			fmt.Fprintf(os.Stderr, "branchsim: unknown ablation %q\n", *ablate)
			os.Exit(2)
		}
		run("ablation "+*ablate, f)
	}
	if *all {
		for _, name := range []string{"counter", "btbsize", "assoc", "ctxswitch", "static", "cycle", "crossval", "icache", "delay", "opt", "hwcost", "sensitivity", "traces", "frontend", "pareto"} {
			run("ablation "+name, ablations[name])
		}
	}

	// The -metrics report: one manifest per evaluated benchmark plus the
	// process-wide counter/gauge/span snapshot.
	report := struct {
		Manifests []*core.Manifest          `json:"manifests"`
		Failures  []*experiments.BenchError `json:"failures,omitempty"`
		Telemetry telemetry.Snapshot        `json:"telemetry"`
	}{suite.Manifests(), suite.Failures(), set.Snapshot()}
	if err := tf.Close(report); err != nil {
		fmt.Fprintf(os.Stderr, "branchsim: %v\n", err)
		os.Exit(1)
	}
	if *partial {
		for _, be := range suite.Failures() {
			fmt.Fprintf(os.Stderr, "branchsim: degraded: %v\n", be)
		}
		if degraded {
			os.Exit(1)
		}
	}
}

func render(t *stats.Table, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return t.Render(outputFormat)
}

// outputFormat is set from -format before any experiment runs.
var outputFormat string

// benchGroups expands a -bench selector element that names a group rather
// than a single benchmark: the registry slices (primary, all, modern,
// everything) and any workload class name ("scan" selects both scan
// benchmarks). Returns nil when the element is not a group.
func benchGroups(part string) []*workloads.Benchmark {
	switch part {
	case "primary":
		return workloads.Primary()
	case "all":
		return workloads.All()
	case "modern":
		return workloads.Modern()
	case "everything":
		return workloads.Everything()
	}
	var class []*workloads.Benchmark
	for _, b := range workloads.Modern() {
		if b.Class == part {
			class = append(class, b)
		}
	}
	return class
}

func benchNames(sel string) []string {
	if sel == "" {
		var names []string
		for _, b := range workloads.Primary() {
			names = append(names, b.Name)
		}
		return names
	}
	var names []string
	for _, part := range strings.Split(sel, ",") {
		part = strings.TrimSpace(part)
		if group := benchGroups(part); group != nil {
			for _, b := range group {
				names = append(names, b.Name)
			}
			continue
		}
		if _, err := workloads.ByName(part); err != nil {
			fmt.Fprintf(os.Stderr, "branchsim: %v (or a group: primary, all, modern, everything, or a class name)\n", err)
			os.Exit(2)
		}
		names = append(names, part)
	}
	return names
}
