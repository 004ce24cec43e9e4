package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// Every workload runs in its own OS process, one at a time, so no
// workload inherits another's heap, pools or goroutines. child runs
// this program again for one workload and parses the JSON line it
// prints last.
func child(workload string, seed int64, seconds float64, trace bool, outDir string, log io.Writer) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, fmt.Errorf("locate own binary: %w", err)
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(self,
		"-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64),
		"-trace", t,
		"-out", outDir)
	cmd.Stderr = log
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		if runErr != nil {
			return result{}, fmt.Errorf("%s: %w", workload, runErr)
		}
		return result{}, fmt.Errorf("%s: parse result: %w", workload, err)
	}
	// A run that printed a result and then exited non-zero failed
	// verification; the caller sees that in res.Correct.
	return res, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// fullResult is what the all-workloads mode writes.
type fullResult struct {
	Seed      int64                      `json:"seed"`
	Workloads map[string]workloadResults `json:"workloads"`
}

type workloadResults struct {
	EndToEnd result `json:"end_to_end"`
	PerLayer result `json:"per_layer"`
}

// runAll is the one command: every workload, untraced then traced,
// each in its own process; or, with repeat, repeat untraced sets.
func runAll(seed int64, seconds float64, repeat int, outDir, outFile string) error {
	if outFile == "" {
		outFile = filepath.Join(outDir, "bench-result.json")
	}
	if repeat > 0 {
		return runRepeat(seed, seconds, repeat, outDir, outFile)
	}
	if seconds <= 0 {
		seconds = 30
	}
	full := fullResult{Seed: seed, Workloads: map[string]workloadResults{}}
	var failed int64
	for _, w := range workloads {
		var wr workloadResults
		var err error
		fmt.Printf("== %s: untraced window %gs ==\n", w.Name, seconds)
		if wr.EndToEnd, err = child(w.Name, seed, seconds, false, outDir, os.Stdout); err != nil {
			return err
		}
		fmt.Printf("== %s: traced window %gs ==\n", w.Name, seconds/3)
		if wr.PerLayer, err = child(w.Name, seed, seconds/3, true, outDir, os.Stdout); err != nil {
			return err
		}
		failed += wr.EndToEnd.Failed + wr.PerLayer.Failed
		full.Workloads[w.Name] = wr
	}
	if err := writeJSON(outFile, full); err != nil {
		return err
	}
	fmt.Printf("result written to %s\n", outFile)
	if failed > 0 {
		return fmt.Errorf("%d operations failed: %w", failed, errVerification)
	}
	return nil
}

// spreadStat is one metric on one workload over the sets of a repeat.
type spreadStat struct {
	Values []float64 `json:"values"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
}

// spread is the distance between the quartiles as a share of the median.
func (s spreadStat) spread() float64 { return ratio(s.Q3-s.Q1, s.Median) }

// repeatResult is what -repeat writes and -compare reads.
type repeatResult struct {
	Sets      int                              `json:"sets"`
	Seeds     []int64                          `json:"seeds"`
	Seconds   float64                          `json:"seconds"`
	Attempted int64                            `json:"attempted"`
	Failed    int64                            `json:"failed"`
	Results   map[string]map[string]spreadStat `json:"results"` // workload -> metric
}

func runRepeat(seed int64, seconds float64, sets int, outDir, outFile string) error {
	if sets < 2 {
		return errors.New("-repeat needs at least 2 sets for quartiles")
	}
	if seconds <= 0 {
		seconds = 20
	}
	rr := repeatResult{Sets: sets, Seconds: seconds, Results: map[string]map[string]spreadStat{}}
	for i := 0; i < sets; i++ {
		rr.Seeds = append(rr.Seeds, seed+int64(i))
	}
	for _, w := range workloads {
		stats := map[string]spreadStat{}
		for _, s := range rr.Seeds {
			res, err := child(w.Name, s, seconds, false, outDir, io.Discard)
			if err != nil {
				return err
			}
			rr.Attempted += res.Attempted
			rr.Failed += res.Failed
			for name, v := range res.Metrics {
				st := stats[name]
				st.Values = append(st.Values, v.Value)
				stats[name] = st
			}
			fmt.Printf("%s seed %d done\n", w.Name, s)
		}
		for name, st := range stats {
			st.Q1, st.Median, st.Q3 = quartiles(st.Values)
			stats[name] = st
		}
		rr.Results[w.Name] = stats
	}
	if err := writeJSON(outFile, rr); err != nil {
		return err
	}
	printSpreads(os.Stdout, rr)
	fmt.Printf("result written to %s\n", outFile)
	if rr.Failed > 0 {
		return fmt.Errorf("%d operations failed: %w", rr.Failed, errVerification)
	}
	return nil
}

func printSpreads(w io.Writer, rr repeatResult) {
	fmt.Fprintf(w, "%-14s %-16s %14s %14s %14s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			st := rr.Results[wl.Name][d.Name]
			fmt.Fprintf(w, "%-14s %-16s %14.4f %14.4f %14.4f %7.1f%% %5.0f%%\n", wl.Name, d.Name, st.Q1, st.Median, st.Q3, 100*st.spread(), 100*d.Bound)
		}
	}
}

func readRepeat(path string) (repeatResult, error) {
	var rr repeatResult
	data, err := os.ReadFile(path)
	if err != nil {
		return rr, err
	}
	if err := json.Unmarshal(data, &rr); err != nil {
		return rr, fmt.Errorf("%s: %w", path, err)
	}
	return rr, nil
}

// compareFiles prints one row per workload and end-to-end metric with
// both medians and quartiles and the frozen bound. A row is worse when
// B's median is worse than A's by more than the bound, and unresolved
// when either side's run-to-run spread is wider than the bound, so the
// bound cannot be read off these runs. It returns an error on any
// worse row or if B failed more operations than A.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readRepeat(pathA)
	if err != nil {
		return err
	}
	b, err := readRepeat(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A: %s (%d sets)   B: %s (%d sets)\n", pathA, a.Sets, pathB, b.Sets)
	fmt.Fprintf(w, "%-14s %-16s %36s %36s %8s %6s %s\n", "workload", "metric", "A q1 / median / q3", "B q1 / median / q3", "change", "bound", "verdict")
	var worse, unresolved int
	for _, wl := range workloads {
		for _, d := range endToEnd {
			sa, sb := a.Results[wl.Name][d.Name], b.Results[wl.Name][d.Name]
			change := ratio(sb.Median-sa.Median, sa.Median)
			worseBy := change
			if d.Better == "higher" {
				worseBy = -change
			}
			verdict := "ok"
			switch {
			case len(sa.Values) == 0 || len(sb.Values) == 0:
				verdict = "missing"
				worse++
			case sa.spread() > d.Bound || sb.spread() > d.Bound:
				verdict = "unresolved"
				unresolved++
			case worseBy > d.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Fprintf(w, "%-14s %-16s %11.4f /%11.4f /%11.4f %11.4f /%11.4f /%11.4f %+7.1f%% %5.0f%% %s\n",
				wl.Name, d.Name, sa.Q1, sa.Median, sa.Q3, sb.Q1, sb.Median, sb.Q3, 100*change, 100*d.Bound, verdict)
		}
	}
	fmt.Fprintf(w, "failed operations: A %d of %d, B %d of %d\n", a.Failed, a.Attempted, b.Failed, b.Attempted)
	fmt.Fprintf(w, "%d worse, %d unresolved\n", worse, unresolved)
	failA, failB := ratio(float64(a.Failed), float64(a.Attempted)), ratio(float64(b.Failed), float64(b.Attempted))
	if worse > 0 || failB > failA {
		return errors.New("B is worse than A")
	}
	return nil
}
