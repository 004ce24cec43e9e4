// Command benchdiff compares a fresh benchmark run against a committed
// benchmark archive and fails when the fresh run has regressed past a
// threshold — the perf gate that keeps BENCH_core.json / BENCH_kap.json
// honest (`make benchdiff` wires it up).
//
// Usage:
//
//	benchdiff -old BENCH_core.json -new fresh.json [-threshold 0.15]
//
// Both inputs may be either a raw benchjson/kap dump or a committed
// before/after archive; for an archive the "after" side (the tree's
// current recorded state) is compared. The two formats are detected by
// shape: core files carry "results" (per-benchmark min ns/op), kap
// files carry "records" (per-configuration p50/p95/p99 latencies).
//
// For core files the gated metrics are min_ns_per_op and
// min_allocs_per_op per benchmark; for kap files the put/fence/get
// p50_ms and p99_ms per configuration. A metric regresses when
// new > old * (1 + threshold). Benchmarks present on only one side are
// reported but never fail the gate, so adding or retiring a benchmark
// does not break CI; likewise allocs/op gates only when both sides
// report it (benchjson omits it without -benchmem and at zero, and no
// ratio is defined against zero — zero-alloc paths are pinned by
// testing.AllocsPerRun tests instead).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// delta is one compared metric.
type delta struct {
	Metric string // e.g. "internal/wire BenchmarkMarshal min_ns_per_op"
	Old    float64
	New    float64
}

// ratio is the relative change, positive when the new run is slower.
func (d delta) ratio() float64 {
	if d.Old <= 0 {
		return 0
	}
	return d.New/d.Old - 1
}

// coreResult is the slice of a benchjson result the gate cares about.
type coreResult struct {
	Pkg      string  `json:"pkg"`
	Name     string  `json:"name"`
	MinNsOp  float64 `json:"min_ns_per_op"`
	MinAlloc float64 `json:"min_allocs_per_op"`
}

// kapRecord is the slice of a kap sweep record the gate cares about:
// the sweep configuration (the identity of the record) and the
// per-phase latency quantiles.
type kapRecord struct {
	Ranks     int  `json:"ranks"`
	Procs     int  `json:"procs_per_rank"`
	ValueSize int  `json:"value_size"`
	Access    int  `json:"access_count"`
	DirFanout int  `json:"dir_fanout"`
	Redundant bool `json:"redundant"`
	Arity     int  `json:"arity"`

	Put   kapPhase `json:"put"`
	Fence kapPhase `json:"fence"`
	Get   kapPhase `json:"get"`
}

type kapPhase struct {
	P50 float64 `json:"p50_ms"`
	P99 float64 `json:"p99_ms"`
}

func (r kapRecord) key() string {
	return fmt.Sprintf("ranks=%d procs=%d size=%d access=%d fanout=%d redundant=%v arity=%d",
		r.Ranks, r.Procs, r.ValueSize, r.Access, r.DirFanout, r.Redundant, r.Arity)
}

// side is one comparison side after format detection: exactly one of
// Core / Kap is non-nil.
type side struct {
	Core []coreResult
	Kap  []kapRecord
}

// parseSide detects the file format and extracts the comparison side.
// Archives contribute their most recent section — "current" (a
// re-baseline) over "after" — while raw dumps are used as-is.
func parseSide(data []byte) (side, error) {
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		return side{}, err
	}
	if cur, ok := top["current"]; ok {
		return parseSide(cur)
	}
	if after, ok := top["after"]; ok {
		return parseSide(after)
	}
	if raw, ok := top["results"]; ok {
		var s side
		if err := json.Unmarshal(raw, &s.Core); err != nil {
			return side{}, fmt.Errorf("results: %w", err)
		}
		return s, nil
	}
	if raw, ok := top["records"]; ok {
		var s side
		if err := json.Unmarshal(raw, &s.Kap); err != nil {
			return side{}, fmt.Errorf("records: %w", err)
		}
		return s, nil
	}
	return side{}, fmt.Errorf("neither a core file (results), a kap file (records), nor an archive (after)")
}

// diff pairs up the two sides' metrics. unmatched lists benchmarks
// present on only one side ("old only: ..." / "new only: ...").
func diff(oldS, newS side) (deltas []delta, unmatched []string, err error) {
	switch {
	case oldS.Core != nil && newS.Core != nil:
		d, u := diffCore(oldS.Core, newS.Core)
		return d, u, nil
	case oldS.Kap != nil && newS.Kap != nil:
		d, u := diffKap(oldS.Kap, newS.Kap)
		return d, u, nil
	default:
		return nil, nil, fmt.Errorf("old and new are different formats (core vs kap)")
	}
}

func diffCore(oldR, newR []coreResult) (deltas []delta, unmatched []string) {
	byKey := map[string]coreResult{}
	seen := map[string]bool{}
	for _, r := range oldR {
		byKey[r.Pkg+" "+r.Name] = r
	}
	for _, r := range newR {
		key := r.Pkg + " " + r.Name
		o, ok := byKey[key]
		if !ok {
			unmatched = append(unmatched, "new only: "+key)
			continue
		}
		seen[key] = true
		deltas = append(deltas, delta{Metric: key + " min_ns_per_op", Old: o.MinNsOp, New: r.MinNsOp})
		if o.MinAlloc > 0 && r.MinAlloc > 0 {
			deltas = append(deltas, delta{Metric: key + " min_allocs_per_op", Old: o.MinAlloc, New: r.MinAlloc})
		}
	}
	for _, r := range oldR {
		if key := r.Pkg + " " + r.Name; !seen[key] {
			unmatched = append(unmatched, "old only: "+key)
		}
	}
	return deltas, unmatched
}

func diffKap(oldR, newR []kapRecord) (deltas []delta, unmatched []string) {
	// Keys can legitimately repeat (e.g. the access sweep caps at the
	// consumer count, folding two sweep points onto one configuration),
	// so records sharing a key are paired in occurrence order.
	byKey := map[string][]kapRecord{}
	taken := map[string]int{}
	for _, r := range oldR {
		byKey[r.key()] = append(byKey[r.key()], r)
	}
	for _, r := range newR {
		key := r.key()
		if taken[key] >= len(byKey[key]) {
			unmatched = append(unmatched, "new only: "+key)
			continue
		}
		o := byKey[key][taken[key]]
		taken[key]++
		for _, ph := range []struct {
			name     string
			old, new kapPhase
		}{
			{"put", o.Put, r.Put},
			{"fence", o.Fence, r.Fence},
			{"get", o.Get, r.Get},
		} {
			deltas = append(deltas,
				delta{Metric: key + " " + ph.name + ".p50_ms", Old: ph.old.P50, New: ph.new.P50},
				delta{Metric: key + " " + ph.name + ".p99_ms", Old: ph.old.P99, New: ph.new.P99})
		}
	}
	for key, rs := range byKey {
		for i := taken[key]; i < len(rs); i++ {
			unmatched = append(unmatched, "old only: "+key)
		}
	}
	sort.Strings(unmatched)
	return deltas, unmatched
}

// regressions filters the deltas that worsened past the threshold,
// sorted worst first. Metrics with a zero/absent old value never gate.
func regressions(deltas []delta, threshold float64) []delta {
	var bad []delta
	for _, d := range deltas {
		if d.Old > 0 && d.ratio() > threshold {
			bad = append(bad, d)
		}
	}
	sort.Slice(bad, func(i, j int) bool { return bad[i].ratio() > bad[j].ratio() })
	return bad
}

func main() {
	oldPath := flag.String("old", "", "committed benchmark JSON (archive or raw dump)")
	newPath := flag.String("new", "", "fresh benchmark JSON to gate")
	threshold := flag.Float64("threshold", 0.15, "max tolerated relative slowdown (0.15 = +15%)")
	verbose := flag.Bool("v", false, "print every compared metric, not just regressions")
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: both -old and -new are required")
		os.Exit(2)
	}

	oldS, err := loadSide(*oldPath)
	if err != nil {
		fatal(err)
	}
	newS, err := loadSide(*newPath)
	if err != nil {
		fatal(err)
	}
	deltas, unmatched, err := diff(oldS, newS)
	if err != nil {
		fatal(err)
	}

	if *verbose {
		for _, d := range deltas {
			fmt.Printf("%+7.1f%%  %-60s %12.3f -> %.3f\n", d.ratio()*100, d.Metric, d.Old, d.New)
		}
	}
	for _, u := range unmatched {
		fmt.Printf("benchdiff: unmatched (%s)\n", u)
	}

	bad := regressions(deltas, *threshold)
	if len(bad) == 0 {
		fmt.Printf("benchdiff: %d metrics within +%.0f%% of %s\n",
			len(deltas), *threshold*100, *oldPath)
		return
	}
	fmt.Printf("benchdiff: %d of %d metrics regressed more than +%.0f%% vs %s:\n",
		len(bad), len(deltas), *threshold*100, *oldPath)
	for _, d := range bad {
		fmt.Printf("  %+7.1f%%  %-60s %12.3f -> %.3f\n", d.ratio()*100, d.Metric, d.Old, d.New)
	}
	os.Exit(1)
}

func loadSide(path string) (side, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return side{}, err
	}
	s, err := parseSide(data)
	if err != nil {
		return side{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
