package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"fluxgo/internal/model"
	"fluxgo/internal/wire"
)

// ratio is a/b, or 0 when b is 0 (a layer the workload never touched).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// budgetRow is one layer's share of an operation's CPU time.
type budgetRow struct {
	Layer   string  `json:"layer"`
	Source  string  `json:"source"`
	PerOp   float64 `json:"per_op"` // calls or messages per operation
	UnitUs  float64 `json:"unit_us"`
	TotalMs float64 `json:"total_ms_per_op"`
	Share   float64 `json:"share_of_cpu,omitempty"`
	// Waits marks a histogram that spans a wait for another rank (a kvs
	// get or load that faults upstream): it is listed, not summed.
	Waits bool `json:"includes_waiting,omitempty"`
}

// budget splits the CPU time of one operation over the layers whose
// busy time the brokers already record, and leaves the rest
// unattributed. On two cores with dozens of simulated processes the
// window is CPU-bound, so where the CPU goes is where the wall time
// goes; queue wait is listed beside it and not summed.
type budget struct {
	CPUMsPerOp   float64     `json:"cpu_ms_per_op"`
	WallMsPerOp  float64     `json:"wall_ms_per_op"`
	Rows         []budgetRow `json:"rows"`
	Unattributed float64     `json:"unattributed_share"`
	QueueMsPerOp float64     `json:"request_queue_wait_ms_per_op"`
}

func (m *measured) budget() budget {
	ops := float64(max(m.ops, 1))
	b := budget{
		CPUMsPerOp:  float64(m.end.cpu-m.start.cpu) / nsPerMs / ops,
		WallMsPerOp: float64(m.end.at.Sub(m.start.at)) / nsPerMs / ops,
	}
	var attributed float64
	row := func(layer, hist string, waits bool) {
		total := m.counts.histSum[hist] / nsPerMs / ops
		b.Rows = append(b.Rows, budgetRow{
			Layer:   layer,
			Source:  hist + " sum",
			PerOp:   m.counts.histCount[hist] / ops,
			UnitUs:  m.counts.meanUs(hist),
			TotalMs: total,
			Waits:   waits,
		})
		if !waits {
			b.Rows[len(b.Rows)-1].Share = ratio(total, b.CPUMsPerOp)
			attributed += total
		}
	}
	// Route work includes the codec pipe's encode and decode: the send
	// runs inside the routing call.
	row("broker: route request (+ wire encode/decode on the hop)", wire.MetricRouteRequestNS, false)
	row("broker: route response (+ wire)", wire.MetricRouteResponseNS, false)
	row("broker: apply and fan out event (+ wire)", wire.MetricApplyEventNS, false)
	row("kvs: put handler (cas hash + insert)", "kvs.put_ns", false)
	row("kvs: fence/commit handler", "kvs.fence_ns", false)
	row("kvs: get handler", "kvs.get_ns", true)
	row("kvs: load handler (serving a child's fault)", "kvs.load_ns", true)
	b.Unattributed = 1 - ratio(attributed, b.CPUMsPerOp)
	b.QueueMsPerOp = m.counts.histSum[wire.MetricRequestQueueNS] / nsPerMs / ops
	return b
}

// perLayerValues computes the traced run's metrics from the probes,
// the registry deltas and the spans.
func (m *measured) perLayerValues(probes map[string]float64, spans map[string]*samples, b budget) map[string]value {
	ops := float64(max(m.ops, 1))
	c := m.counts
	out := make(map[string]value, len(perLayer))
	for name, v := range probes {
		out[name] = value{Value: v}
	}
	set := func(name string, v float64, n int) { out[name] = value{Value: finite(v), n: n} }

	set("client.bytes_per_op", m.clientBytesPerOp, m.ops)
	set("broker.requests_per_op", c.ctr[wire.MetricRequestsRouted]/ops, m.ops)
	set("broker.responses_per_op", c.ctr[wire.MetricResponsesRouted]/ops, m.ops)
	set("broker.events_per_op", c.ctr[wire.MetricEventsApplied]/ops, m.ops)
	set("broker.request_queue_us_mean", c.meanUs(wire.MetricRequestQueueNS), int(c.histCount[wire.MetricRequestQueueNS]))
	set("broker.route_request_us_mean", c.meanUs(wire.MetricRouteRequestNS), int(c.histCount[wire.MetricRouteRequestNS]))
	set("broker.route_response_us_mean", c.meanUs(wire.MetricRouteResponseNS), int(c.histCount[wire.MetricRouteResponseNS]))
	set("broker.apply_event_us_mean", c.meanUs(wire.MetricApplyEventNS), int(c.histCount[wire.MetricApplyEventNS]))
	reuse, encodes := c.ctr[wire.MetricEventsFanoutReuse], c.ctr[wire.MetricEventsFanoutEncodes]
	set("broker.fanout_reuse_ratio", ratio(reuse, reuse+encodes), int(reuse+encodes))
	set("broker.errors", c.errors(), m.ops)

	gets := c.ctr["kvs.gets"]
	set("kvs.gets_per_op", gets/ops, m.ops)
	set("kvs.loads_per_get", ratio(c.ctr["kvs.loads"], gets), int(gets))
	set("kvs.load_batches_per_get", ratio(c.ctr["kvs.load_batches"], gets), int(gets))
	faults := c.ctr["kvs.loads"] + c.ctr["kvs.loads_coalesced"]
	set("kvs.coalesced_ratio", ratio(c.ctr["kvs.loads_coalesced"], faults), int(faults))
	lookups := m.kvsCache.hits + m.kvsCache.misses
	set("kvs.cache_hit_ratio", ratio(m.kvsCache.hits, lookups), int(lookups))
	set("kvs.commits_per_op", m.kvsCommits/ops, m.ops)

	jobs := float64(m.jobs)
	set("jobsvc.events_per_job", ratio(c.ctr[wire.MetricEventsPublished], jobs), m.jobs)
	set("jobsvc.requests_per_job", ratio(c.ctr[wire.MetricRequestsRouted], jobs), m.jobs)
	set("jobsvc.stale_reads", float64(m.staleReads), m.jobs)

	for i, stage := range []string{"produce", "sync", "consume"} {
		s := spans[m.stageCalls[i]]
		if s == nil {
			s = newSamples(0)
		}
		_, tail := s.tail()
		set("stage."+stage+"_us", s.median()/nsPerUs, s.n())
		set("stage."+stage+"_us_tail", tail/nsPerUs, s.n())
	}
	set("op.ms_p90", m.op.quantile(0.9)/nsPerMs, m.op.n())

	set("runtime.alloc_kb_per_op", float64(m.end.allocBytes-m.start.allocBytes)/1024/ops, m.ops)
	set("runtime.gc_cpu_share", m.end.gcCPU, 0)
	set("runtime.peak_rss_mb", peakRSSMB(), 0)
	set("runtime.goroutines_peak", float64(m.goroutinesPeak), 0)
	set("runtime.cpu_ms_per_op", b.CPUMsPerOp, m.ops)

	// The paper's log2(C) x T(G), with T(G) built from the fault probe
	// rather than fitted to the result it is compared with: one cache
	// level replicates the round's G objects at the per-object cost the
	// probe measured for one hop.
	perObject := probes["kvs.fault_hop_us"] * nsPerUs / faultObjects
	predicted := model.ConsumerLatency(m.consumers, time.Duration(float64(m.modelObjects)*perObject))
	set("model.get_pred_ratio", ratio(m.consume.median(), float64(predicted)), m.consume.n())
	set("trace.overhead_ratio", ratio(m.opRecorded.median(), m.opControl.median()), m.opControl.n())
	set("trace.unattributed_share", b.Unattributed, m.ops)

	for _, d := range perLayer {
		v := out[d.Name]
		v.Unit = d.Unit
		out[d.Name] = v
	}
	return out
}

// openLoopStats summarizes the open-loop segment of a workload that
// has one: latency from each job's due time, and how late the
// generator itself ran. nil elsewhere.
func (m *measured) openLoopStats() map[string]float64 {
	if m.openLoop == nil || m.openLoop.n() == 0 {
		return nil
	}
	return map[string]float64{
		"p50_ms":                m.openLoop.median() / nsPerMs,
		"p90_ms":                m.openLoop.quantile(0.9) / nsPerMs,
		"generator_late_p50_ms": m.genLate.median() / nsPerMs,
		"generator_late_p99_ms": m.genLate.quantile(0.99) / nsPerMs,
	}
}

// traceFile is what a traced run writes out when it ends.
type traceFile struct {
	Workload string                `json:"workload"`
	Seed     int64                 `json:"seed"`
	Note     string                `json:"note"`
	Budget   budget                `json:"budget"`
	ByName   map[string]*nameStats `json:"by_name"`
	OpenLoop map[string]float64    `json:"open_loop,omitempty"`
	Spans    []span                `json:"spans"`
}

// fullOps is how many operations' spans the trace file keeps in full;
// by_name covers all of them.
const fullOps = 32

func writeTrace(dir, workload string, seed int64, m *measured, tr *tracer, stats map[string]*nameStats, b budget) (string, error) {
	tf := traceFile{
		Workload: workload,
		Seed:     seed,
		Note:     fmt.Sprintf("spans of the first %d recorded operations; by_name aggregates every recorded span; self_ms is duration minus the part child spans cover", fullOps),
		Budget:   b,
		ByName:   stats,
		OpenLoop: m.openLoopStats(),
		Spans:    tr.head(fullOps),
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}

// printValues writes the metrics in catalogue order, one per line,
// with unit and sample count.
func printValues(w io.Writer, defs []metricDef, vals map[string]value) {
	for _, d := range defs {
		v := vals[d.Name]
		fmt.Fprintf(w, "  %-32s %14.4f %-6s n=%d\n", d.Name, v.Value, v.Unit, v.n)
	}
}

func printBudget(w io.Writer, b budget) {
	fmt.Fprintf(w, "latency budget per operation: cpu %.3f ms, wall %.3f ms, request-queue wait %.3f ms\n", b.CPUMsPerOp, b.WallMsPerOp, b.QueueMsPerOp)
	for _, r := range b.Rows {
		share := fmt.Sprintf("%5.1f%%", 100*r.Share)
		if r.Waits {
			share = "waits on another rank, not summed"
		}
		fmt.Fprintf(w, "  %-58s %9.1f x %8.2f us = %9.3f ms  %s\n", r.Layer, r.PerOp, r.UnitUs, r.TotalMs, share)
	}
	fmt.Fprintf(w, "  %-58s %43.1f%%\n", "unattributed (client calls, mailboxes, scheduler, GC)", 100*b.Unattributed)
}

func printSpans(w io.Writer, stats map[string]*nameStats) {
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "spans: name, count, total ms, self ms, p50 us, tail")
	for _, name := range names {
		s := stats[name]
		fmt.Fprintf(w, "  %-22s %8d %12.1f %12.1f %10.1f  p%g=%.1f us\n", name, s.Count, s.SumMs, s.SelfMs, s.P50Us, 100*s.TailQ, s.TailUs)
	}
}

// printDistributions shows the shape behind each stage median.
// Quartiles and tails are diagnostics, never end-to-end metrics.
func printDistributions(w io.Writer, m *measured) {
	fmt.Fprintln(w, "diagnostics (ms): stage, n, p10, p25, p50, p75, p90, tail, max")
	for _, st := range []struct {
		name string
		s    *samples
	}{{"produce", m.produce}, {"sync", m.sync}, {"consume", m.consume}, {"op", m.op}} {
		q, tail := st.s.tail()
		fmt.Fprintf(w, "  %-8s %6d", st.name, st.s.n())
		for _, p := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
			fmt.Fprintf(w, " %10.4f", st.s.quantile(p)/nsPerMs)
		}
		fmt.Fprintf(w, "  p%g=%.4f  max=%.4f\n", 100*q, tail/nsPerMs, st.s.quantile(1)/nsPerMs)
	}
}
