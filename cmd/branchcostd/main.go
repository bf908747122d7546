// Command branchcostd is the branch-cost evaluation daemon: the
// experiments.Suite engine behind cmd/branchsim, long-running and behind
// HTTP. Clients POST evaluation requests — a registered benchmark name, or
// an uploaded BCT2 trace — and receive per-scheme scores and the run
// manifest as a newline-delimited JSON stream.
//
// Usage:
//
//	branchcostd -addr :8091 -corpus /var/lib/branchcost/corpus
//
// Endpoints:
//
//	POST /eval?benchmark=wc        evaluate a registered benchmark
//	POST /eval?schemes=sbtb,tage   score an uploaded trace (request body)
//	GET  /schemes                  registered schemes and their defaults
//	GET  /failures                 structured record of failed evaluations
//	GET  /healthz                  liveness (200 while the process runs)
//	GET  /readyz                   readiness (200 after the corpus warm-check)
//	GET  /metrics                  OpenMetrics counter/gauge/histogram export
//
// Operational behavior:
//
//   - Admission control: at most -max-inflight evaluations run at once with
//     -max-queue more waiting; excess requests get an immediate structured
//     503. -rate/-burst add per-client token-bucket rate limiting (keyed by
//     X-API-Token / Authorization: Bearer, else by remote address).
//   - Corpus: -corpus evaluates through the disk-backed trace corpus
//     (recording on first use, replaying after); -corpus-budget bounds its
//     disk footprint with least-recently-used eviction.
//   - Lifecycle: on SIGTERM/SIGINT the daemon stops admitting work, drains
//     in-flight evaluations up to -drain-timeout, then exits — 0 on a clean
//     drain, 1 if the deadline fired first.
//   - Failure typing: every error response is JSON with a stable code; a
//     panicking evaluation is isolated into a 500 (code "panic") and its
//     corpus entry quarantined, never a dead process.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"branchcost/internal/core"
	"branchcost/internal/corpus"
	"branchcost/internal/serve"
	"branchcost/internal/telemetry"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr         = flag.String("addr", ":8091", "listen address")
		corpusDir    = flag.String("corpus", os.Getenv("BRANCHCOST_CORPUS"), "trace corpus directory (empty: live evaluation only)")
		corpusBudget = flag.Int64("corpus-budget", 0, "corpus byte budget; LRU-evict above it (0: uncapped)")
		schemes      = flag.String("schemes", "", "comma-separated schemes to score (default: the paper's three)")
		workers      = flag.Int("workers", 0, "suite worker pool size (0: GOMAXPROCS)")
		deadline     = flag.Duration("deadline", 2*time.Minute, "per-benchmark evaluation deadline")
		retries      = flag.Int("retries", 2, "retries for transiently failed evaluations")
		maxInflight  = flag.Int("max-inflight", 0, "max concurrently running evaluations (0: GOMAXPROCS)")
		maxQueue     = flag.Int("max-queue", 0, "max evaluations waiting for a slot (0: 2x max-inflight)")
		rate         = flag.Float64("rate", 0, "per-client requests/sec (0: no rate limiting)")
		burst        = flag.Int("burst", 0, "per-client burst size (0: rate+1)")
		maxUpload    = flag.Int64("max-upload", 0, "max uploaded trace bytes (0: 64MiB)")
		warm         = flag.String("warm", "", "comma-separated benchmarks for the readiness warm-check (default: all; 'none' skips)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "hard deadline for the SIGTERM drain")
	)
	tf := telemetry.RegisterFlags(flag.CommandLine)
	flag.Parse()

	set, err := tf.Init()
	if err != nil {
		fmt.Fprintln(os.Stderr, "branchcostd:", err)
		return 2
	}
	defer tf.Close(nil)
	log := set.Log()

	cfg := serve.Config{
		Core: core.Config{
			Schemes:   splitList(*schemes),
			Telemetry: set,
		},
		Workers:        *workers,
		Deadline:       *deadline,
		Retries:        *retries,
		MaxInFlight:    *maxInflight,
		MaxQueue:       *maxQueue,
		RatePerSec:     *rate,
		Burst:          *burst,
		MaxUploadBytes: *maxUpload,
		CorpusBudget:   *corpusBudget,
		DrainTimeout:   *drainTimeout,
	}
	if *corpusDir != "" {
		store, err := corpus.Open(*corpusDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "branchcostd:", err)
			return 2
		}
		cfg.Core.Corpus = store
	}
	switch *warm {
	case "none":
		cfg.WarmBenchmarks = []string{}
	case "":
		cfg.WarmBenchmarks = nil
	default:
		cfg.WarmBenchmarks = splitList(*warm)
	}
	srv := serve.New(cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "branchcostd:", err)
		return 2
	}
	// The parseable startup line: scripts (and the smoke test) read the
	// bound address from here, which makes -addr :0 usable.
	fmt.Printf("branchcostd: listening on %s\n", ln.Addr())

	ctx := telemetry.NewContext(context.Background(), set)
	go func() {
		if err := srv.WarmCheck(ctx); err != nil {
			log.Warn("branchcostd: warm-check failed; staying unready", "err", err)
		}
	}()

	httpSrv := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)

	select {
	case sig := <-sigCh:
		log.Info("branchcostd: draining", "signal", sig.String())
		drainErr := srv.Drain(ctx)
		shutCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutCtx)
		if drainErr != nil {
			log.Error("branchcostd: drain failed", "err", drainErr)
			fmt.Fprintln(os.Stderr, "branchcostd:", drainErr)
			return 1
		}
		fmt.Println("branchcostd: drained, exiting")
		return 0
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "branchcostd:", err)
			return 1
		}
		return 0
	}
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
