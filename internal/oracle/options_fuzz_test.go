package oracle_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"branchcost/internal/oracle"
	"branchcost/internal/predict"
)

// optionPairs lists every (configurable scheme, option key) pair in registry
// and key order: the space FuzzSchemeOptions picks from.
func optionPairs() [][2]string {
	var out [][2]string
	for _, n := range predict.Names() {
		if sc := predict.MustLookup(n); sc.Defaults != nil {
			for _, k := range predict.OptionKeys(sc.Defaults()) {
				out = append(out, [2]string{n, k})
			}
		}
	}
	return out
}

// fuzzCap bounds the values an accepted configuration may carry into a
// build — table logs to 16 and buffer sizes to 4096 entries — so no case
// allocates more than a few megabytes.
func fuzzCap(key string) int32 {
	switch {
	case key == "table" || key == "base" || key == "sites":
		return 16
	case strings.HasSuffix(key, "entries"):
		return 4096
	}
	return 1 << 30
}

// FuzzSchemeOptions drives single -scheme-opt overrides through parsing and
// validation: a rejected configuration must fail with predict.ErrBadOption,
// and an accepted one must build and agree with its oracle twin in lockstep
// on a generated trace.
func FuzzSchemeOptions(f *testing.F) {
	pairs := optionPairs()
	pick := func(opt string) (uint16, int32) {
		name, rest, _ := strings.Cut(opt, ".")
		key, val, _ := strings.Cut(rest, "=")
		v, err := strconv.Atoi(val)
		if err != nil {
			f.Fatal(err)
		}
		for i, p := range pairs {
			if p == [2]string{name, key} {
				return uint16(i), int32(v)
			}
		}
		f.Fatalf("no option %s.%s", name, key)
		return 0, 0
	}
	// Out-of-range values for every BTB scheme and three history schemes.
	for _, opt := range []string{
		"sbtb.assoc=300", "sbtb.entries=3", "sbtb.entries=-4", "cbtb.bits=9",
		"cbtb.bits=64", "cbtb.threshold=9", "tage.table=40", "tage.max-hist=2",
		"perceptron.weight-bits=1", "gshare.history=40", "btb2l.l2-assoc=3",
	} {
		i, v := pick(opt)
		f.Add(i, v)
	}
	// Every key at the values around the ranges' edges.
	for i := range pairs {
		for _, v := range []int32{-1, 0, 1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 30, 31, 32, 33, 63, 64, 65, 255, 256} {
			f.Add(uint16(i), v)
		}
	}
	f.Fuzz(func(t *testing.T, i uint16, value int32) {
		p := pairs[int(i)%len(pairs)]
		opt := fmt.Sprintf("%s.%s=%d", p[0], p[1], value)
		cs, err := predict.ParseOptions([]string{opt})
		if err == nil {
			err = cs.Validate()
		}
		if err != nil {
			if !errors.Is(err, predict.ErrBadOption) {
				t.Fatalf("%s rejected with %v, want ErrBadOption", opt, err)
			}
			return
		}
		if value > fuzzCap(p[1]) {
			return
		}
		ref, ok := oracle.For(p[0], cs.Resolved(p[0]), nil)
		if !ok {
			t.Fatalf("%s: no oracle twin", opt)
		}
		sut := predict.MustLookup(p[0]).New(predict.SchemeContext{Configs: cs})
		g := oracle.Generate(rand.New(rand.NewSource(int64(i)<<32|int64(uint32(value)))),
			oracle.GenConfig{Sites: 48, Events: 2000})
		if _, div := oracle.CheckEvents(p[0], g.Events, sut, ref); div != nil {
			t.Fatalf("%s: %v", opt, div)
		}
	})
}
