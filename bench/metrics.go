package main

import (
	"math"
	"time"
)

// metricDef names one metric of BENCHMARK.json. selfcheck_test.go holds
// the two lists below equal to that file.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics an untraced run reports, on every workload.
// What produce/sync/consume/op mean on each workload is in README.md;
// on the KAP workloads they are the paper's put, fence and get phase
// maxima (Figs. 2-4) and the round.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"produce_ms", "ms", "lower", 0.25},
	{"sync_ms", "ms", "lower", 0.25},
	{"consume_ms", "ms", "lower", 0.20},
	{"op_ms", "ms", "lower", 0.20},
	{"ops_per_s", "1/s", "higher", 0.20},
	{"mallocs_per_op", "count", "lower", 0.10},
}

// perLayer are the metrics a traced run reports, on every workload.
// Probes (isolated loops over a layer's public functions) run the same
// way in every traced run; counts are registry deltas over the window
// divided by operations and are 0 where a workload never touches the
// layer; stage.* come from the benchmark's own spans.
var perLayer = []metricDef{
	{"wire.encode_ns_64", "ns", "lower", 0},
	{"wire.decode_ns_64", "ns", "lower", 0},
	{"wire.encode_ns_32k", "ns", "lower", 0},
	{"wire.decode_ns_32k", "ns", "lower", 0},
	{"wire.allocs_roundtrip_64", "count", "lower", 0},

	{"transport.hop_ns_64", "ns", "lower", 0},
	{"transport.hop_ns_32k", "ns", "lower", 0},
	{"client.bytes_per_op", "B", "lower", 0},

	{"broker.rpc_local_us", "us", "lower", 0},
	{"broker.rpc_hop_us", "us", "lower", 0},
	{"broker.requests_per_op", "count", "lower", 0},
	{"broker.responses_per_op", "count", "lower", 0},
	{"broker.events_per_op", "count", "lower", 0},
	{"broker.request_queue_us_mean", "us", "lower", 0},
	{"broker.route_request_us_mean", "us", "lower", 0},
	{"broker.route_response_us_mean", "us", "lower", 0},
	{"broker.apply_event_us_mean", "us", "lower", 0},
	{"broker.fanout_reuse_ratio", "ratio", "higher", 0},
	{"broker.errors", "count", "lower", 0},

	{"session.bringup_ms", "ms", "lower", 0},
	{"session.close_ms", "ms", "lower", 0},

	{"kvs.put_us", "us", "lower", 0},
	{"kvs.fence_op_ms", "ms", "lower", 0},
	{"kvs.get_cached_us", "us", "lower", 0},
	{"kvs.get_fault_us", "us", "lower", 0},
	{"kvs.fault_hop_us", "us", "lower", 0},
	{"kvs.commit_us", "us", "lower", 0},
	{"kvs.gets_per_op", "count", "lower", 0},
	{"kvs.loads_per_get", "ratio", "lower", 0},
	{"kvs.load_batches_per_get", "ratio", "lower", 0},
	{"kvs.coalesced_ratio", "ratio", "higher", 0},
	{"kvs.cache_hit_ratio", "ratio", "higher", 0},
	{"kvs.commits_per_op", "count", "lower", 0},

	{"cas.hash_ns_64", "ns", "lower", 0},
	{"cas.hash_ns_32k", "ns", "lower", 0},
	{"cas.put_ns_32k", "ns", "lower", 0},
	{"cas.encode_ns_dir128", "ns", "lower", 0},
	{"cas.wal_commit_us", "us", "lower", 0},

	{"barrier.enter_ms", "ms", "lower", 0},
	{"barrier.enter_ms_tail", "ms", "lower", 0},

	{"jobsvc.submit_us", "us", "lower", 0},
	{"jobsvc.wait_ms", "ms", "lower", 0},
	{"jobsvc.events_per_job", "count", "lower", 0},
	{"jobsvc.requests_per_job", "count", "lower", 0},
	{"jobsvc.stale_reads", "count", "lower", 0},
	{"resrc.alloc_free_us", "us", "lower", 0},
	{"wexec.run_wait_ms", "ms", "lower", 0},

	{"stage.produce_us", "us", "lower", 0},
	{"stage.produce_us_tail", "us", "lower", 0},
	{"stage.sync_us", "us", "lower", 0},
	{"stage.sync_us_tail", "us", "lower", 0},
	{"stage.consume_us", "us", "lower", 0},
	{"stage.consume_us_tail", "us", "lower", 0},
	{"op.ms_p90", "ms", "lower", 0},

	{"runtime.alloc_kb_per_op", "kB", "lower", 0},
	{"runtime.gc_cpu_share", "ratio", "lower", 0},
	{"runtime.peak_rss_mb", "MB", "lower", 0},
	{"runtime.goroutines_peak", "count", "lower", 0},
	{"runtime.cpu_ms_per_op", "ms", "lower", 0},

	{"model.get_pred_ratio", "ratio", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
	{"trace.unattributed_share", "ratio", "lower", 0},
}

// workloadDef names one workload of BENCHMARK.json.
type workloadDef struct {
	Name string
	run  func(e *env) (*measured, error)
}

var workloads = []workloadDef{
	{"kap_bootstrap", func(e *env) (*measured, error) { return runKAP(e, kapBootstrap) }},
	{"kap_bulk", func(e *env) (*measured, error) { return runKAP(e, kapBulk) }},
	{"sync_storm", func(e *env) (*measured, error) { return runSync(e, syncStorm) }},
	{"job_stream", func(e *env) (*measured, error) { return runJobs(e, jobStream) }},
}

// measured is what a workload hands back for reporting. Durations are
// nanoseconds, one sample per operation of the window.
type measured struct {
	setup *samples // seconds, one per set-up repetition

	produce, sync, consume, op *samples
	// Traced runs split op by whether the operation was recorded.
	opRecorded, opControl *samples

	opsPerS float64
	ops     int // operations the per-op counts divide by
	jobs    int // completed jobs, for the per-job counts
	// staleReads counts job outputs not yet readable when WaitJob returned.
	staleReads int

	start, end     procState // around the counted window
	counts         *tally    // registry delta over the same window
	kvsCommits     float64   // root versions the window added
	kvsCache       kvsCache  // traced runs: object-cache lookups in the window
	goroutinesPeak int

	clientBytesPerOp float64
	consumers        int       // KAP: procs in the get phase, for the model
	modelObjects     int       // KAP: objects one cache level replicates in a round
	stageCalls       [3]string // span name of the client call inside each stage
	genLate          *samples  // open loop: how late the generator ran, ns
	openLoop         *samples  // open loop: due time to WaitJob return, ns
}

func newMeasured(setup *samples, capacity int) *measured {
	return &measured{
		setup:      setup,
		produce:    newSamples(capacity),
		sync:       newSamples(capacity),
		consume:    newSamples(capacity),
		op:         newSamples(capacity),
		opRecorded: newSamples(capacity),
		opControl:  newSamples(capacity),
		counts:     newTally(),
	}
}

// addOp records one operation's end-to-end time.
func (m *measured) addOp(tr *tracer, op int, d time.Duration) {
	m.op.addDur(d)
	if tr == nil {
		return
	}
	if tr.records(op) {
		m.opRecorded.addDur(d)
	} else {
		m.opControl.addDur(d)
	}
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind it, for the printed report
}

// finite maps the NaN of an empty sample set to 0 so the result stays
// valid JSON; the verification step reports empty sets as failures.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// endToEndValues computes the untraced run's metrics.
func (m *measured) endToEndValues() map[string]value {
	ops := float64(max(m.ops, 1))
	return map[string]value{
		"setup_s":        {finite(m.setup.median()), "s", m.setup.n()},
		"produce_ms":     {finite(m.produce.median() / nsPerMs), "ms", m.produce.n()},
		"sync_ms":        {finite(m.sync.median() / nsPerMs), "ms", m.sync.n()},
		"consume_ms":     {finite(m.consume.median() / nsPerMs), "ms", m.consume.n()},
		"op_ms":          {finite(m.op.median() / nsPerMs), "ms", m.op.n()},
		"ops_per_s":      {finite(m.opsPerS), "1/s", m.ops},
		"mallocs_per_op": {float64(m.end.mallocs-m.start.mallocs) / ops, "count", m.ops},
	}
}
