package predict_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	_ "branchcost/internal/btb"     // registers sbtb/cbtb/btb2l
	_ "branchcost/internal/history" // registers gshare/local/perceptron/tage
	"branchcost/internal/predict"
)

// configurableSchemes are the registry entries with a Defaults constructor.
var configurableSchemes = []string{"sbtb", "cbtb", "btb2l", "gshare", "local", "perceptron", "tage"}

// TestOptionRoundTrip: every tagged field of every scheme config is
// reachable by key — set it through SetOption, read it back through
// DescribeOptions — so the CLI's -scheme-opt surface covers the whole
// config space with no dead keys.
func TestOptionRoundTrip(t *testing.T) {
	for _, name := range configurableSchemes {
		sc := predict.MustLookup(name)
		if sc.Defaults == nil {
			t.Fatalf("%s: no Defaults constructor", name)
		}
		cfg := sc.Defaults()
		orig := predict.DescribeOptions(cfg)
		keys := predict.OptionKeys(cfg)
		if len(keys) == 0 {
			t.Fatalf("%s: no option keys", name)
		}
		for _, key := range keys {
			set, err := predict.SetOption(cfg, key, "3")
			if err != nil {
				t.Fatalf("%s.%s=3: %v", name, key, err)
			}
			if !strings.Contains(predict.DescribeOptions(set), key+"=3") {
				t.Errorf("%s.%s=3 not visible in %q", name, key, predict.DescribeOptions(set))
			}
		}
		// The original must not have been mutated through any of the copies.
		if got := predict.DescribeOptions(cfg); got != orig {
			t.Errorf("%s: SetOption mutated its input: %q -> %q", name, orig, got)
		}
	}
}

// TestSetOptionUnknownKeyListsValid: a typo'd key must fail with an error
// that names every valid key for the scheme, so the CLI's diagnosis is
// self-serve.
func TestSetOptionUnknownKeyListsValid(t *testing.T) {
	cfg := predict.MustLookup("tage").Defaults()
	_, err := predict.SetOption(cfg, "no-such-key", "1")
	if err == nil {
		t.Fatal("unknown key accepted")
	}
	for _, key := range predict.OptionKeys(cfg) {
		if !strings.Contains(err.Error(), key) {
			t.Errorf("error %q does not list valid key %q", err, key)
		}
	}
	if _, err := predict.SetOption(cfg, "tables", "banana"); err == nil {
		t.Fatal("unparsable value accepted")
	}
}

// TestParseOptionsAccumulates: repeated -scheme-opt flags accumulate into
// one set — across schemes and within one scheme — and fields the flags do
// not touch still resolve to the scheme defaults.
func TestParseOptionsAccumulates(t *testing.T) {
	cs, err := predict.ParseOptions([]string{
		"gshare.history=14",
		"gshare.table=13",
		"tage.tables=5",
	})
	if err != nil {
		t.Fatal(err)
	}
	g := cs.Resolved("gshare").(predict.HistoryConfig)
	if g.History != 14 || g.Table != 13 {
		t.Fatalf("gshare overrides lost: %+v", g)
	}
	if g.Bits != 2 || g.TargetEntries != 256 {
		t.Fatalf("gshare untouched fields lost their defaults: %+v", g)
	}
	tg := cs.Resolved("tage").(predict.TAGEConfig)
	if tg.Tables != 5 {
		t.Fatalf("tage override lost: %+v", tg)
	}
	if tg.Base == 0 || tg.MaxHist == 0 {
		t.Fatalf("tage untouched fields lost their defaults: %+v", tg)
	}

	for _, bad := range []string{"no-dot", "nosuchscheme.key=1", "gshare.nope=1", "gshare.history=x"} {
		if _, err := predict.ParseOptions([]string{bad}); err == nil {
			t.Errorf("ParseOptions accepted %q", bad)
		}
	}
}

// TestMergeSetsLayering: MergeSets merges per-field where both sets
// configure a scheme, and neither input is modified.
func TestMergeSetsLayering(t *testing.T) {
	base := predict.ConfigSet{"cbtb": predict.CBTBConfig{
		BTBGeometry: predict.BTBGeometry{Entries: 64, Assoc: 4},
	}}
	over := predict.ConfigSet{"cbtb": predict.CBTBConfig{
		CounterConfig: predict.CounterConfig{Bits: 3},
	}}
	merged := predict.MergeSets(base, over)
	c := merged.Resolved("cbtb").(predict.CBTBConfig)
	if c.Entries != 64 || c.Assoc != 4 || c.Bits != 3 {
		t.Fatalf("merge lost a layer: %+v", c)
	}
	// Midpoint threshold follows the merged width, not the default width.
	if c.ThresholdValue() != 4 {
		t.Fatalf("threshold did not follow the merged width: %d", c.ThresholdValue())
	}
	if b := base["cbtb"].(predict.CBTBConfig); b.Bits != 0 {
		t.Fatal("MergeSets mutated its base input")
	}
}

// TestDescribeOptionsStable: the manifest rendering is key-sorted and
// renders a nil pointer as auto, so two identically configured runs
// compare byte-for-byte.
func TestDescribeOptionsStable(t *testing.T) {
	d1 := predict.DescribeOptions(predict.ConfigSet(nil).Resolved("cbtb"))
	d2 := predict.DescribeOptions(predict.ConfigSet{}.Resolved("cbtb"))
	if d1 != d2 {
		t.Fatalf("unstable rendering: %q vs %q", d1, d2)
	}
	unresolved := predict.DescribeOptions(predict.CBTBConfig{
		CounterConfig: predict.CounterConfig{Bits: 2},
	})
	if !strings.Contains(unresolved, "threshold=auto") {
		t.Errorf("nil threshold rendered as %q, want threshold=auto", unresolved)
	}
}

// TestFlagConfigs: the CLIs' -entries/-assoc/-bits/-threshold shorthand and
// their -scheme-opt overrides resolve through one mapping. want lists the
// schemes whose resolved configuration differs from a nil set's; every
// other registered scheme must resolve exactly as a nil set does.
func TestFlagConfigs(t *testing.T) {
	for _, tc := range []struct {
		name                         string
		entries, assoc, bits, thresh int
		opts                         []string
		want                         map[string]string
	}{
		{name: "default flags", entries: 256, assoc: 256, bits: 2, thresh: -1},
		{name: "bits 3 sets cbtb only, threshold at the midpoint", entries: 256, assoc: 256, bits: 3, thresh: -1,
			want: map[string]string{"cbtb": "assoc=256 bits=3 entries=256 threshold=4"}},
		{name: "threshold 0 stays an explicit 0", entries: 256, assoc: 256, bits: 2, thresh: 0,
			want: map[string]string{"cbtb": "assoc=256 bits=2 entries=256 threshold=0"}},
		{name: "geometry shapes both buffers", entries: 16, assoc: 16, bits: 2, thresh: -1,
			want: map[string]string{"sbtb": "assoc=16 entries=16", "cbtb": "assoc=16 bits=2 entries=16 threshold=2"}},
		{name: "scheme-opt wins over the shorthand", entries: 64, assoc: 4, bits: 3, thresh: 1,
			opts: []string{"cbtb.entries=32", "cbtb.threshold=5", "sbtb.assoc=2", "tage.tables=5"},
			want: map[string]string{
				"sbtb": "assoc=2 entries=64",
				"cbtb": "assoc=4 bits=3 entries=32 threshold=5",
				"tage": "base=11 bits=3 max-hist=64 min-hist=4 table=9 tables=5 tag=8 target-assoc=256 target-entries=256 ubits=2",
			}},
	} {
		cs, err := predict.FlagConfigs(tc.entries, tc.assoc, tc.bits, tc.thresh, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, n := range predict.Names() {
			want, ok := tc.want[n]
			if !ok {
				want = predict.DescribeOptions(predict.ConfigSet(nil).Resolved(n))
			}
			if got := predict.DescribeOptions(cs.Resolved(n)); got != want {
				t.Errorf("%s: %s resolved to %q, want %q", tc.name, n, got, want)
			}
		}
	}
}

// TestFlagConfigsRejects: a configuration no predictor can be built from
// fails at parse time with an error that wraps ErrBadOption and names the
// scheme, the key and the accepted range — never a constructor panic.
func TestFlagConfigsRejects(t *testing.T) {
	for _, tc := range []struct {
		entries, thresh int
		opt             string
		want            string
	}{
		{opt: "sbtb.assoc=300", want: "sbtb.assoc=300 (want a divisor of entries=256)"},
		{opt: "sbtb.entries=3", want: "sbtb.assoc=256 (want a divisor of entries=3)"},
		{opt: "sbtb.entries=-4", want: "sbtb.entries=-4 (want >= 1)"},
		{opt: "cbtb.bits=9", want: "cbtb.bits=9 (want [1,8])"},
		{opt: "cbtb.bits=64", want: "cbtb.bits=64 (want [1,8])"},
		{opt: "cbtb.threshold=9", want: "cbtb.threshold=9 (want [0,3])"},
		{opt: "tage.table=40", want: "tage.table=40 (want [2,30])"},
		{opt: "tage.max-hist=2", want: "tage.max-hist=2 (want [4,64])"},
		{opt: "perceptron.weight-bits=1", want: "perceptron.weight-bits=1 (want [2,16])"},
		{opt: "gshare.history=40", want: "gshare.history=40 (want [1,32])"},
		{opt: "btb2l.l2-assoc=3", want: "btb2l.l2-assoc=3 (want a divisor of l2-entries=1024)"},
		{opt: "cbtb.threshold=300", want: `threshold="300" (want an integer in [0,255])`},
		{opt: "local.sites=31", want: "local.sites=31 (want [0,30])"},
		{entries: 64, want: "cbtb.assoc=256 (want a divisor of entries=64)"},
		{thresh: 300, want: "cbtb.threshold=300 (want [0,255])"},
	} {
		entries, thresh := 256, -1
		if tc.entries != 0 {
			entries = tc.entries
		}
		if tc.thresh != 0 {
			thresh = tc.thresh
		}
		var opts []string
		if tc.opt != "" {
			opts = []string{tc.opt}
		}
		_, err := predict.FlagConfigs(entries, 256, 2, thresh, opts)
		if !errors.Is(err, predict.ErrBadOption) || !strings.Contains(fmt.Sprint(err), tc.want) {
			t.Errorf("%q (entries %d, threshold %d): err %v, want ErrBadOption naming %q",
				tc.opt, entries, thresh, err, tc.want)
		}
	}
}

// TestConfigSetValidate: every registry default passes its own range
// rules, and a set the registry cannot resolve is a typed error.
func TestConfigSetValidate(t *testing.T) {
	all := predict.ConfigSet{}
	for _, n := range configurableSchemes {
		all[n] = predict.MustLookup(n).Defaults()
	}
	if err := all.Validate(); err != nil {
		t.Fatalf("registry defaults rejected: %v", err)
	}
	if err := predict.ConfigSet(nil).Validate(); err != nil {
		t.Fatalf("nil set rejected: %v", err)
	}
	for name, cs := range map[string]predict.ConfigSet{
		"unknown scheme":  {"no-such-scheme": predict.SBTBConfig{}},
		"takes no config": {"fs": predict.SBTBConfig{}},
		"wrong type":      {"sbtb": predict.CBTBConfig{}},
	} {
		if err := cs.Validate(); !errors.Is(err, predict.ErrBadOption) {
			t.Errorf("%s: err %v, want ErrBadOption", name, err)
		}
	}
}
