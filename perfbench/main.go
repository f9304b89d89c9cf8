// Command perfbench is the repository's benchmark. From a seed it
// generates a Gaussian corpus and a request schedule, hands the corpus
// as CSV to the real `onionctl build`, serves the index with the real
// `onionserve` over loopback, drives it open loop from at most two
// connections, checks every answer against a brute-force oracle, and
// prints every metric by name with its unit.
//
//	bash perfbench/run.sh --workload topn-deep --seed 1 --seconds 10 --trace 0
//
// run.sh builds the binaries into .bench_build/ and runs this program
// from the repository root. Workloads: topn-deep, topn-hot, mixed-rw
// (see perfbench/README.md). With --trace 0 the result carries the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics:
// counts from /v1/metrics deltas of an untraced pass, times from a
// traced in-process pass and a replay of its inputs through each
// layer's public functions.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is non-zero
// on any wrong answer or lost acknowledged write.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		wlName  = flag.String("workload", "", "workload: topn-deep, topn-hot or mixed-rw")
		seed    = flag.Int64("seed", 1, "workload seed; fixes every input of the run")
		seconds = flag.Float64("seconds", 10, "length of the measured phase in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run and per-layer metrics")
		binDir  = flag.String("bin", ".bench_build/perfbench/bin", "directory holding onionctl and onionserve")
		workDir = flag.String("work", ".bench_build/perfbench", "directory for the run's files")
	)
	flag.Parse()
	sp, ok := lookupSpec(*wlName)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload topn-deep|topn-hot|mixed-rw, --seconds > 0, --trace 0|1\n")
		return 2
	}
	for _, p := range []string{"go.mod", filepath.Join(*binDir, "onionserve"), filepath.Join(*binDir, "onionctl")} {
		if _, err := os.Stat(p); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: run from the repository root after building (see run.sh): %v\n", err)
			return 2
		}
	}
	work, err := filepath.Abs(filepath.Join(*workDir, fmt.Sprintf("run-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)
	defer killAll()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.RemoveAll(work)
		os.Exit(130)
	}()

	b := &bench{
		sp:       sp,
		seed:     *seed,
		seconds:  *seconds,
		serveBin: filepath.Join(*binDir, "onionserve"),
		ctlBin:   filepath.Join(*binDir, "onionctl"),
		work:     work,
		traceDir: *workDir,
		rep:      &report{},
	}
	if err := b.run(*trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", sp.name, err)
		return 1
	}
	b.rep.set("error_share", ratio(float64(b.failed), float64(b.attempted)), "ratio")
	b.rep.print(os.Stdout, b.correct(), b.attempted, b.failed)
	if !b.correct() {
		fmt.Fprintf(os.Stderr, "perfbench: %d wrong answers or lost writes\n", b.wrong)
		return 1
	}
	return 0
}
