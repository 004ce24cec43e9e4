// Command benchjson converts `go test -bench` text output into JSON so
// benchmark runs can be archived and diffed (the CI bench job pipes
// through it to produce BENCH_core.json). Only the standard library is
// used — no x/perf dependency.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem -count 3 ./... | benchjson -label after -o BENCH_core.json
//
// Repeated runs of one benchmark (from -count N) are kept as samples
// under a single result, with the minimum ns/op surfaced alongside —
// the conventional noise-resistant summary for latency-style
// benchmarks.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// sample is one benchmark line (one -count repetition).
type sample struct {
	Iters    int64   `json:"iters"`
	NsPerOp  float64 `json:"ns_per_op"`
	BPerOp   int64   `json:"bytes_per_op,omitempty"`
	AllocsOp int64   `json:"allocs_per_op,omitempty"`
}

// result groups the samples of one benchmark in one package.
type result struct {
	Pkg      string   `json:"pkg,omitempty"`
	Name     string   `json:"name"`
	Samples  []sample `json:"samples"`
	MinNsOp  float64  `json:"min_ns_per_op"`
	MinBOp   int64    `json:"min_bytes_per_op,omitempty"`
	MinAlloc int64    `json:"min_allocs_per_op,omitempty"`
}

type output struct {
	Label   string    `json:"label,omitempty"`
	Goos    string    `json:"goos,omitempty"`
	Goarch  string    `json:"goarch,omitempty"`
	CPU     string    `json:"cpu,omitempty"`
	Results []*result `json:"results"`
}

func main() {
	label := flag.String("label", "", "label recorded in the output (e.g. baseline, after)")
	outPath := flag.String("o", "", "write JSON here instead of stdout")
	flag.Parse()

	out := output{Label: *label}
	byKey := map[string]*result{}
	pkg := ""
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			out.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			out.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			out.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			name, s, ok := parseBenchLine(line)
			if !ok {
				continue
			}
			key := pkg + "\x00" + name
			r := byKey[key]
			if r == nil {
				r = &result{Pkg: pkg, Name: name}
				byKey[key] = r
				out.Results = append(out.Results, r)
			}
			r.Samples = append(r.Samples, s)
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	for _, r := range out.Results {
		for i, s := range r.Samples {
			if i == 0 || s.NsPerOp < r.MinNsOp {
				r.MinNsOp = s.NsPerOp
			}
			if i == 0 || s.BPerOp < r.MinBOp {
				r.MinBOp = s.BPerOp
			}
			if i == 0 || s.AllocsOp < r.MinAlloc {
				r.MinAlloc = s.AllocsOp
			}
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *outPath == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*outPath, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d results to %s\n", len(out.Results), *outPath)
}

// parseBenchLine parses one result line:
//
//	BenchmarkName-8  1234  93.2 ns/op  320 B/op  1 allocs/op
//
// The GOMAXPROCS suffix is stripped from the name; B/op and allocs/op
// are optional (absent without -benchmem).
func parseBenchLine(line string) (string, sample, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return "", sample{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	var s sample
	var err error
	if s.Iters, err = strconv.ParseInt(fields[1], 10, 64); err != nil {
		return "", sample{}, false
	}
	ok := false
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			if s.NsPerOp, err = strconv.ParseFloat(val, 64); err == nil {
				ok = true
			}
		case "B/op":
			s.BPerOp, _ = strconv.ParseInt(val, 10, 64)
		case "allocs/op":
			s.AllocsOp, _ = strconv.ParseInt(val, 10, 64)
		}
	}
	return name, s, ok
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
