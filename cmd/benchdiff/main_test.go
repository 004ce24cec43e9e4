package main

import (
	"math"
	"strings"
	"testing"
)

const coreArchive = `{
  "benchmark": "core-micro",
  "baseline": {"label": "baseline", "results": [
    {"pkg": "fluxgo/internal/wire", "name": "BenchmarkMarshal", "min_ns_per_op": 93.2}
  ]},
  "after": {"label": "after", "results": [
    {"pkg": "fluxgo/internal/wire", "name": "BenchmarkMarshal", "min_ns_per_op": 45.5},
    {"pkg": "fluxgo/internal/wire", "name": "BenchmarkUnmarshal", "min_ns_per_op": 193.3}
  ]}
}`

const coreFresh = `{
  "label": "fresh",
  "results": [
    {"pkg": "fluxgo/internal/wire", "name": "BenchmarkMarshal", "min_ns_per_op": 60.0},
    {"pkg": "fluxgo/internal/kvs", "name": "BenchmarkCommit", "min_ns_per_op": 900.0}
  ]
}`

func TestParseSideDetectsFormats(t *testing.T) {
	s, err := parseSide([]byte(coreArchive))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Core) != 2 || s.Kap != nil {
		t.Fatalf("archive parsed to %d core / %d kap, want after-side 2 core", len(s.Core), len(s.Kap))
	}
	if s.Core[0].MinNsOp != 45.5 {
		t.Fatalf("archive must yield the after side, got min_ns_per_op %v", s.Core[0].MinNsOp)
	}
	if _, err := parseSide([]byte(`{"label": "x"}`)); err == nil {
		t.Fatal("shapeless input must be rejected")
	}
}

func TestDiffCorePairsAndReportsUnmatched(t *testing.T) {
	oldS, err := parseSide([]byte(coreArchive))
	if err != nil {
		t.Fatal(err)
	}
	newS, err := parseSide([]byte(coreFresh))
	if err != nil {
		t.Fatal(err)
	}
	deltas, unmatched, err := diff(oldS, newS)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 1 {
		t.Fatalf("got %d deltas, want 1 (only BenchmarkMarshal exists on both sides)", len(deltas))
	}
	d := deltas[0]
	if d.Old != 45.5 || d.New != 60.0 {
		t.Fatalf("delta pairs %v -> %v, want 45.5 -> 60.0", d.Old, d.New)
	}
	if want := 60.0/45.5 - 1; math.Abs(d.ratio()-want) > 1e-9 {
		t.Fatalf("ratio %v, want %v", d.ratio(), want)
	}
	joined := strings.Join(unmatched, "; ")
	if !strings.Contains(joined, "new only: fluxgo/internal/kvs BenchmarkCommit") ||
		!strings.Contains(joined, "old only: fluxgo/internal/wire BenchmarkUnmarshal") {
		t.Fatalf("unmatched = %q, want both the new-only and old-only benchmarks listed", joined)
	}
}

// TestDiffCoreGatesAllocs: allocs/op is compared whenever both sides
// report it, and only then — a side without the figure (no -benchmem, or
// a zero-alloc benchmark, which benchjson omits) never gates.
func TestDiffCoreGatesAllocs(t *testing.T) {
	oldS, err := parseSide([]byte(`{"results": [
		{"pkg": "p", "name": "BenchmarkBoth", "min_ns_per_op": 100, "min_allocs_per_op": 20},
		{"pkg": "p", "name": "BenchmarkOldOnly", "min_ns_per_op": 100, "min_allocs_per_op": 20},
		{"pkg": "p", "name": "BenchmarkNewOnly", "min_ns_per_op": 100}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	newS, err := parseSide([]byte(`{"results": [
		{"pkg": "p", "name": "BenchmarkBoth", "min_ns_per_op": 90, "min_allocs_per_op": 45},
		{"pkg": "p", "name": "BenchmarkOldOnly", "min_ns_per_op": 100},
		{"pkg": "p", "name": "BenchmarkNewOnly", "min_ns_per_op": 100, "min_allocs_per_op": 900}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	deltas, _, err := diff(oldS, newS)
	if err != nil {
		t.Fatal(err)
	}
	bad := regressions(deltas, 0.15)
	if len(bad) != 1 || bad[0].Metric != "p BenchmarkBoth min_allocs_per_op" || bad[0].Old != 20 || bad[0].New != 45 {
		t.Fatalf("regressions = %v, want only BenchmarkBoth's allocs 20 -> 45 (its ns/op improved)", bad)
	}
	if len(deltas) != 4 {
		t.Fatalf("got %d deltas, want 3 ns/op + 1 allocs/op", len(deltas))
	}
}

func TestRegressionsThreshold(t *testing.T) {
	deltas := []delta{
		{Metric: "fast", Old: 100, New: 80},     // improved
		{Metric: "noise", Old: 100, New: 114.9}, // within +15%
		{Metric: "edge", Old: 100, New: 115},    // exactly at threshold: passes
		{Metric: "slow", Old: 100, New: 130},    // regressed
		{Metric: "worse", Old: 100, New: 200},   // regressed harder
		{Metric: "zero", Old: 0, New: 50},       // no old value: never gates
	}
	bad := regressions(deltas, 0.15)
	if len(bad) != 2 {
		t.Fatalf("got %d regressions %v, want 2", len(bad), bad)
	}
	if bad[0].Metric != "worse" || bad[1].Metric != "slow" {
		t.Fatalf("regressions not sorted worst-first: %v", bad)
	}
}

const kapOld = `{
  "after": {"records": [
    {"ranks": 4, "procs_per_rank": 4, "value_size": 8, "access_count": 1,
     "dir_fanout": 128, "redundant": false, "arity": 2,
     "put":   {"p50_ms": 0.03, "p99_ms": 1.0},
     "fence": {"p50_ms": 2.0,  "p99_ms": 2.1},
     "get":   {"p50_ms": 0.13, "p99_ms": 1.0}}
  ]}
}`

const kapNew = `{
  "records": [
    {"ranks": 4, "procs_per_rank": 4, "value_size": 8, "access_count": 1,
     "dir_fanout": 128, "redundant": false, "arity": 2,
     "put":   {"p50_ms": 0.03, "p99_ms": 1.3},
     "fence": {"p50_ms": 2.0,  "p99_ms": 2.1},
     "get":   {"p50_ms": 0.13, "p99_ms": 1.0}},
    {"ranks": 8, "procs_per_rank": 4, "value_size": 8, "access_count": 1,
     "dir_fanout": 128, "redundant": false, "arity": 2,
     "put":   {"p50_ms": 0.05, "p99_ms": 1.0},
     "fence": {"p50_ms": 3.0,  "p99_ms": 3.1},
     "get":   {"p50_ms": 0.2,  "p99_ms": 1.5}}
  ]
}`

func TestDiffKapGatesQuantiles(t *testing.T) {
	oldS, err := parseSide([]byte(kapOld))
	if err != nil {
		t.Fatal(err)
	}
	newS, err := parseSide([]byte(kapNew))
	if err != nil {
		t.Fatal(err)
	}
	deltas, unmatched, err := diff(oldS, newS)
	if err != nil {
		t.Fatal(err)
	}
	// One matched record, three phases x two quantiles each.
	if len(deltas) != 6 {
		t.Fatalf("got %d deltas, want 6", len(deltas))
	}
	if len(unmatched) != 1 || !strings.Contains(unmatched[0], "new only: ranks=8") {
		t.Fatalf("unmatched = %v, want the new ranks=8 record listed", unmatched)
	}
	bad := regressions(deltas, 0.15)
	if len(bad) != 1 || !strings.HasSuffix(bad[0].Metric, "put.p99_ms") {
		t.Fatalf("regressions = %v, want exactly the put.p99_ms +30%%", bad)
	}
}

func TestDiffKapPairsDuplicateKeysInOrder(t *testing.T) {
	// The access sweep can fold two points onto one configuration (access
	// caps at the consumer count); a self-diff must still be a no-op.
	rec := func(p50 float64) kapRecord {
		return kapRecord{Ranks: 4, Procs: 4, ValueSize: 8, Access: 16,
			DirFanout: 128, Arity: 2, Fence: kapPhase{P50: p50, P99: p50}}
	}
	oldR := []kapRecord{rec(1.0), rec(0.5)}
	deltas, unmatched := diffKap(oldR, oldR)
	if len(unmatched) != 0 {
		t.Fatalf("self-diff unmatched = %v, want none", unmatched)
	}
	for _, d := range deltas {
		if d.ratio() != 0 {
			t.Fatalf("self-diff delta %v not zero: records paired out of order", d)
		}
	}
}

func TestDiffRejectsMixedFormats(t *testing.T) {
	coreS, err := parseSide([]byte(coreFresh))
	if err != nil {
		t.Fatal(err)
	}
	kapS, err := parseSide([]byte(kapNew))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := diff(coreS, kapS); err == nil {
		t.Fatal("core vs kap comparison must be rejected")
	}
}
