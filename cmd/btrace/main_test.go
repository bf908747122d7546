package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"branchcost/internal/predict"
	"branchcost/internal/telemetry"
	"branchcost/internal/tracefile"
)

// TestMain lets the test binary double as btrace: when re-exec'd with
// BTRACE_EXEC=1 it runs main() on its own arguments, so the test drives
// exactly the shipped entrypoint — flag parsing, output, exit codes.
func TestMain(m *testing.M) {
	if os.Getenv("BTRACE_EXEC") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// btrace runs the command with args and returns its standard output,
// failing the test on a nonzero exit.
func btrace(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "BTRACE_EXEC=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("btrace %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return string(out)
}

// TestBtrace records wc, then checks -inspect against the trace loaded in
// process, a plain replay against tracefile.Score over every replayable
// scheme, and that -explain and -frontend run to a clean exit.
func TestBtrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wc.bt")
	btrace(t, "-record", "-bench", "wc", "-o", path)

	set := telemetry.New()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tracefile.ReadTraceContext(telemetry.NewContext(context.Background(), set), f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("inspect", func(t *testing.T) {
		want := fmt.Sprintf("%s: BCT2, %d events, %d sites, %d blocks, %d bytes, %d instructions, %d runs\n",
			path, tr.Len(), tr.Sites(), set.Counter("tracefile.bct2.blocks").Value(), st.Size(), tr.Steps, tr.Runs)
		if got := btrace(t, "-inspect", path); got != want {
			t.Fatalf("-inspect printed\n%s want\n%s", got, want)
		}
	})

	t.Run("replay", func(t *testing.T) {
		configs, err := predict.FlagConfigs(256, 256, 2, -1, nil)
		if err != nil {
			t.Fatal(err)
		}
		names := replayable()
		evals := make([]*predict.Evaluator, len(names))
		for i, n := range names {
			evals[i] = &predict.Evaluator{P: predict.MustLookup(n).New(predict.SchemeContext{Configs: configs})}
		}
		if err := tracefile.Score(context.Background(), tr, evals); err != nil {
			t.Fatal(err)
		}
		var want strings.Builder
		for i, n := range names {
			e := evals[i]
			fmt.Fprintf(&want, "%-16s accuracy %7.3f%%  miss ratio %.4f  (%d branches)\n",
				n, 100*e.S.Accuracy(), e.S.MissRatio(), e.S.Branches)
		}
		if got := btrace(t, path); got != want.String() {
			t.Fatalf("replay printed\n%s want\n%s", got, want.String())
		}
	})

	t.Run("explain", func(t *testing.T) {
		btrace(t, "-explain", "-scheme", "cbtb", path)
	})
	t.Run("frontend", func(t *testing.T) {
		btrace(t, "-frontend", "-bench", "wc", path)
	})
}
