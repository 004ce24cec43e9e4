package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// The self-check keeps the benchmark honest between the runs that use
// it: every workload and the probes still run and verify at a reduced
// scale, what they emit is exactly what BENCHMARK.json declares, and
// the benchmark reaches the system only through surfaces that are not
// slated for deletion.

// Reduced scales: the same code paths on sessions small enough for the
// race detector to finish in about a second each.
var (
	smallKAP    = kapParams{ranks: 8, procsPerRank: 2, objects: 16, valueSize: 64, gets: 2, dirFanout: 4, warmupRounds: 1}
	smallBulk   = kapParams{ranks: 4, procsPerRank: 2, objects: 8, valueSize: 4 << 10, gets: 2, dirFanout: 4, warmupRounds: 1}
	smallSync   = syncParams{ranks: 8, subscribers: 3, burstPubs: 2, burstEvents: 8, warmupOps: 3, opShare: 0.6}
	smallJobs   = jobParams{ranks: 8, submitters: []int{1, 2}, maxNodes: 2, latencyNodes: 2, singleShare: 0.4, closedShare: 0.3, openRate: 20, inFlight: 16, warmupJobs: 4}
	smallProbes = probeParams{ranks: 8, budget: 2 * time.Millisecond}
)

var smallWorkloads = []workloadDef{
	{"kap_bootstrap", func(e *env) (*measured, error) { return runKAP(e, smallKAP) }},
	{"kap_bulk", func(e *env) (*measured, error) { return runKAP(e, smallBulk) }},
	{"sync_storm", func(e *env) (*measured, error) { return runSync(e, smallSync) }},
	{"job_stream", func(e *env) (*measured, error) { return runJobs(e, smallJobs) }},
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// sameMetrics holds the program's catalogue equal to the manifest's,
// name by name and in order.
func sameMetrics(t *testing.T, kind string, defs []metricDef, want []manifestMetric, bounded bool) {
	t.Helper()
	if len(defs) != len(want) {
		t.Fatalf("%s: program declares %d metrics, BENCHMARK.json %d", kind, len(defs), len(want))
	}
	seen := map[string]bool{}
	for i, d := range defs {
		w := want[i]
		if d.Name != w.Name || d.Unit != w.Unit || d.Better != w.Better {
			t.Errorf("%s[%d]: program has %+v, BENCHMARK.json %+v", kind, i, d, w)
		}
		if !nameRE.MatchString(d.Name) || d.Unit == "" || seen[d.Name] {
			t.Errorf("%s[%d]: bad or repeated name %q, or empty unit %q", kind, i, d.Name, d.Unit)
		}
		seen[d.Name] = true
		switch {
		case bounded && (w.Bound == nil || *w.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
			t.Errorf("%s %s: bound %v in program, %v in BENCHMARK.json, want equal and in (0, 0.25]", kind, d.Name, d.Bound, w.Bound)
		case !bounded && w.Bound != nil:
			t.Errorf("%s %s: per-layer metrics carry no bound", kind, d.Name)
		}
	}
}

func TestManifestMatchesProgram(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("program has %d workloads, BENCHMARK.json %d", len(workloads), len(m.Workloads))
	}
	for i, w := range workloads {
		if w.Name != m.Workloads[i].Name || !nameRE.MatchString(w.Name) || m.Workloads[i].Why == "" {
			t.Errorf("workload %d: program %q, BENCHMARK.json %q (why %q)", i, w.Name, m.Workloads[i].Name, m.Workloads[i].Why)
		}
		if smallWorkloads[i].Name != w.Name {
			t.Errorf("self-check workload %d is %q, want %q", i, smallWorkloads[i].Name, w.Name)
		}
	}
	sameMetrics(t, "end_to_end", endToEnd, m.EndToEnd, true)
	sameMetrics(t, "per_layer", perLayer, m.PerLayer, false)
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", m.Paths)
	}
}

// checkEmitted asserts a run emitted exactly the declared metrics,
// each with its unit and a finite value, and failed nothing.
func checkEmitted(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("emitted %d metrics, declared %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("metric %s not emitted", d.Name)
			continue
		}
		if v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("metric %s = %v %q, want a finite value in %q", d.Name, v.Value, v.Unit, d.Unit)
		}
	}
}

func TestWorkloadsReducedScale(t *testing.T) {
	dir := t.TempDir()
	for _, w := range smallWorkloads {
		for _, trace := range []bool{false, true} {
			name := w.Name + "/untraced"
			defs := endToEnd
			if trace {
				name, defs = w.Name+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				cfg := runConfig{seed: 7, window: 300 * time.Millisecond, trace: trace, outDir: dir, probes: smallProbes}
				res, err := runOne(cfg, w, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				checkEmitted(t, res, defs)
				if !trace {
					for _, d := range defs {
						if res.Metrics[d.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, res.Metrics[d.Name].Value)
						}
					}
					return
				}
				if _, err := os.Stat(filepath.Join(dir, "trace-"+w.Name+".json")); err != nil {
					t.Errorf("traced run left no trace file: %v", err)
				}
			})
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := genKAP(5, 3, smallKAP), genKAP(5, 3, smallKAP)
	c := genKAP(6, 3, smallKAP)
	if string(a.values[0]) != string(b.values[0]) || a.reads[1][1] != b.reads[1][1] {
		t.Error("same seed gave different KAP inputs")
	}
	if string(a.values[0]) == string(c.values[0]) {
		t.Error("different seeds gave the same KAP values")
	}
	x, y := genArrivals(5, 50, time.Second, 4), genArrivals(5, 50, time.Second, 4)
	if len(x) == 0 || len(x) != len(y) || x[0] != y[0] {
		t.Error("same seed gave different arrivals")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 60, End: 70}}
	if got := covered(kids, 0, 65); got != 35 {
		t.Errorf("covered = %d, want 35 (10..40 and 60..65)", got)
	}
}

// denied are the surfaces ROADMAP slates for deletion; the benchmark
// must keep compiling when they go.
var (
	deniedImports = []string{"fluxgo/internal/tools", "fluxgo/internal/modules/logmod", "fluxgo/internal/core"}
	deniedIdents  = regexp.MustCompile(`\b(ShardedClient|ShardedFactories|NewShardedClient|BinaryBodies|BinWriter|BinReader|RawBody|Shards)\b`)
)

func TestNoDeniedSurfaces(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(src), "//fluxlint:"+"ignore") {
			t.Errorf("%s waives a lint finding", file)
		}
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, src, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			for _, d := range deniedImports {
				if strings.Trim(imp.Path.Value, `"`) == d {
					t.Errorf("%s imports %s", file, d)
				}
			}
		}
		if m := deniedIdents.Find(src); m != nil {
			t.Errorf("%s uses %s", file, m)
		}
	}
}

// TestVetAndLint runs the two static checks over the benchmark the way
// `make check` runs them over the module.
func TestVetAndLint(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool on PATH")
	}
	for _, args := range [][]string{{"vet", "./bench"}, {"run", "./cmd/fluxlint", "./bench"}} {
		cmd := exec.Command("go", args...)
		cmd.Dir = ".."
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
}
