// Command bench is the repository's benchmark: four workloads over the
// in-process comms session, reporting end-to-end metrics from an
// untraced window and per-layer metrics from a traced one. See
// README.md in this directory and BENCHMARK.json at the repository
// root.
//
//	bench -workload kap_bulk -seed 7 -seconds 20 -trace 0   one run, one JSON line
//	bench -seed 1                                           every workload, untraced then traced
//	bench -repeat 5 -o A.json                               5 sets, medians and quartiles
//	bench -compare A.json B.json                            verdict per workload and metric
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// result is the JSON object a single run prints as its last line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runConfig is one run of one workload.
type runConfig struct {
	seed   int64
	window time.Duration
	trace  bool
	outDir string
	probes probeParams
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runOne runs one workload once and reports to log what it measured.
func runOne(cfg runConfig, w workloadDef, log io.Writer) (result, error) {
	e := &env{seed: cfg.seed, window: cfg.window, traced: cfg.trace}
	var probes map[string]float64
	if cfg.trace {
		var err error
		if probes, err = runProbes(cfg.probes, cfg.seed, cfg.outDir); err != nil {
			return result{}, err
		}
	}
	m, err := w.run(e)
	if err != nil {
		return result{}, err
	}
	// A broker error counter that moved is as much a failure as a wrong
	// value: each count is one operation lost or misrouted.
	if n := int64(m.counts.errors()); n > 0 {
		e.check(false, "broker error counters moved by %d during the window", n)
		e.failed.Add(n - 1)
		e.attempted.Add(n - 1)
	}
	for _, s := range []*samples{m.produce, m.sync, m.consume, m.op} {
		e.check(s.n() > 0, "a stage of %s recorded no operation", w.Name)
	}

	res := result{Attempted: e.attempted.Load(), Failed: e.failed.Load()}
	res.Correct = res.Failed == 0
	fmt.Fprintf(log, "%s seed %d: %d operations in the window, %d checks, %d failed\n", w.Name, cfg.seed, m.ops, res.Attempted, res.Failed)
	if m.staleReads > 0 {
		fmt.Fprintf(log, "stale reads: %d job outputs were not yet readable when WaitJob returned (retried, not failed)\n", m.staleReads)
	}
	if e.firstErr != "" {
		fmt.Fprintf(log, "first failure: %s\n", e.firstErr)
	}
	if ol := m.openLoopStats(); ol != nil {
		fmt.Fprintf(log, "open loop (diagnostic): %d jobs, due to done p50 %.3f ms, p90 %.3f ms; generator late p50 %.3f ms, p99 %.3f ms\n",
			m.openLoop.n(), ol["p50_ms"], ol["p90_ms"], ol["generator_late_p50_ms"], ol["generator_late_p99_ms"])
	}
	if !cfg.trace {
		res.Metrics = m.endToEndValues()
		printValues(log, endToEnd, res.Metrics)
		printDistributions(log, m)
		return res, nil
	}
	stats, spans := e.tr.summarize()
	b := m.budget()
	res.Metrics = m.perLayerValues(probes, spans, b)
	printValues(log, perLayer, res.Metrics)
	printBudget(log, b)
	printSpans(log, stats)
	path, err := writeTrace(cfg.outDir, w.Name, cfg.seed, m, e.tr, stats, b)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(log, "trace written to %s\n", path)
	return res, nil
}

// errVerification marks a run whose outputs were wrong; its result is
// still printed.
var errVerification = errors.New("verification failed")

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload and print one JSON line (default: run all)")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 0, "measured window in seconds (default 20 for one workload, 30 untraced + 10 traced for all)")
		trace    = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
		outDir   = flag.String("out", ".bench_build", "directory for trace files and results")
		repeat   = flag.Int("repeat", 0, "run this many untraced sets of every workload and write medians and quartiles")
		outFile  = flag.String("o", "", "with -repeat or no -workload: result file (default <out>/bench-result.json)")
		compare  = flag.Bool("compare", false, "compare two -repeat result files given as arguments")
	)
	flag.Parse()
	err := func() error {
		switch {
		case *compare:
			if flag.NArg() != 2 {
				return errors.New("usage: bench -compare A.json B.json")
			}
			return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		case *workload != "":
			w, ok := findWorkload(*workload)
			if !ok {
				return fmt.Errorf("unknown workload %q", *workload)
			}
			if *seconds <= 0 {
				*seconds = 20
			}
			cfg := runConfig{
				seed:   *seed,
				window: time.Duration(*seconds * float64(time.Second)),
				trace:  *trace != 0,
				outDir: *outDir,
				probes: fullProbes,
			}
			res, err := runOne(cfg, w, os.Stderr)
			if err != nil {
				return err
			}
			line, err := json.Marshal(res)
			if err != nil {
				return err
			}
			fmt.Println(string(line))
			if !res.Correct {
				return errVerification
			}
			return nil
		default:
			return runAll(*seed, *seconds, *repeat, *outDir, *outFile)
		}
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
