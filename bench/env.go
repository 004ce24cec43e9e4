package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fluxgo/internal/kvs"
	"fluxgo/internal/obs"
	"fluxgo/internal/session"
	"fluxgo/internal/wire"
)

// env is what the workloads of one run share.
type env struct {
	seed   int64
	window time.Duration
	traced bool
	// tr records spans once set-up is over, on traced runs; nil before
	// and on untraced runs, so warm-up never reaches the trace.
	tr *tracer

	attempted atomic.Int64
	failed    atomic.Int64

	mu       sync.Mutex
	firstErr string
}

// check counts one verified operation; a false ok counts it as failed
// and keeps the first message for the report.
func (e *env) check(ok bool, format string, args ...any) bool {
	e.attempted.Add(1)
	if ok {
		return true
	}
	e.failed.Add(1)
	e.mu.Lock()
	if e.firstErr == "" {
		e.firstErr = fmt.Sprintf(format, args...)
	}
	e.mu.Unlock()
	return false
}

// checkErr is check for calls whose only output is an error.
func (e *env) checkErr(err error, what string) bool {
	return e.check(err == nil, "%s: %v", what, err)
}

// setupReps is how many times an untraced run sets up: setup_s is the
// median, so one slow bring-up does not decide it. Traced runs do not
// report setup_s and set up once.
const setupReps = 5

// measureSetup times up (bring-up plus warm-up) reps times, tearing
// down all but the last, which the run keeps. Tracing starts when it
// returns.
func (e *env) measureSetup(up func() (down func(), err error)) (*samples, func(), error) {
	reps := setupReps
	if e.traced {
		reps = 1
	}
	s := newSamples(reps)
	for i := 0; ; i++ {
		t0 := time.Now()
		down, err := up()
		if err != nil {
			return nil, nil, err
		}
		s.add(time.Since(t0).Seconds())
		if i == reps-1 {
			if e.traced {
				e.tr = newTracer()
			}
			return s, down, nil
		}
		down()
	}
}

// tally accumulates registry snapshots: add(+1, after) and
// add(-1, before) give a window's delta on a long-lived session;
// add(+1, end) per round sums rounds that each had a fresh session.
type tally struct {
	ctr       map[string]float64
	histSum   map[string]float64
	histCount map[string]float64
}

func newTally() *tally {
	return &tally{ctr: map[string]float64{}, histSum: map[string]float64{}, histCount: map[string]float64{}}
}

func (t *tally) add(sign float64, s obs.Snapshot) {
	for name, v := range s.Counters {
		t.ctr[name] += sign * float64(v)
	}
	for name, h := range s.Hists {
		// Only sum and count are read: the p50 of an obs.Histogram is a
		// log2 bucket edge.
		t.histSum[name] += sign * float64(h.SumNS)
		t.histCount[name] += sign * float64(h.Count)
	}
}

// meanUs is a histogram's sum_ns/count over the window, in microseconds.
func (t *tally) meanUs(name string) float64 {
	if t.histCount[name] == 0 {
		return 0
	}
	return t.histSum[name] / t.histCount[name] / nsPerUs
}

// errorCounters are the broker counters that must not move during a
// benchmark window; their sum is broker.errors and counts as failed
// operations.
var errorCounters = []string{
	wire.MetricSendErrors,
	wire.MetricInflightFailed,
	wire.MetricEventSeqGaps,
	wire.MetricDropsUnknownType,
	wire.MetricDropsEmptyRoute,
	wire.MetricDropsUnknownLink,
	wire.MetricDropsUnknownControl,
}

func (t *tally) errors() float64 {
	var n float64
	for _, name := range errorCounters {
		n += t.ctr[name]
	}
	return n
}

// snapshotAll merges every rank's broker registry into one snapshot.
func snapshotAll(sess *session.Session) obs.Snapshot {
	var all obs.Snapshot
	for r := 0; r < sess.Size(); r++ {
		all.Merge(sess.Broker(r).Metrics().Snapshot())
	}
	return all
}

// procState is the runtime's view at one instant.
type procState struct {
	mallocs, allocBytes uint64
	gcCPU               float64 // GCCPUFraction since process start
	cpu                 time.Duration
	at                  time.Time
}

func readProc() procState {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	var cpu time.Duration
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return procState{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, gcCPU: ms.GCCPUFraction, cpu: cpu, at: time.Now()}
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// goroutineWatch samples the goroutine count until stopped and
// reports the peak.
type goroutineWatch struct {
	stop chan struct{}
	done chan struct{}
	peak int
}

func watchGoroutines() *goroutineWatch {
	w := &goroutineWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			if n := runtime.NumGoroutine(); n > w.peak {
				w.peak = n
			}
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

func (w *goroutineWatch) finish() int {
	close(w.stop)
	<-w.done
	return w.peak
}

// kvsCache is the kvs modules' object-cache hit and miss counts summed
// over ranks. They are not in the metrics registry, so they are read
// with the kvs.stats RPC each rank's module answers locally.
type kvsCache struct{ hits, misses float64 }

func readKVSCache(sess *session.Session) (kvsCache, error) {
	var c kvsCache
	for r := 0; r < sess.Size(); r++ {
		h := sess.Handle(r)
		resp, err := h.RPC("kvs.stats", wire.NodeidAny, nil)
		h.Close()
		if err != nil {
			return c, fmt.Errorf("kvs.stats at rank %d: %w", r, err)
		}
		var body struct {
			Hits   float64 `json:"hits"`
			Misses float64 `json:"misses"`
		}
		if err := resp.UnpackJSON(&body); err != nil {
			return c, fmt.Errorf("kvs.stats at rank %d: %w", r, err)
		}
		c.hits += body.Hits
		c.misses += body.Misses
	}
	return c, nil
}

// window brackets the counted part of a run on a long-lived session:
// open and close read the registry, the KVS root version and the
// runtime, and close leaves the deltas in m.
type window struct {
	e      *env
	sess   *session.Session
	m      *measured
	before obs.Snapshot
	v0     uint64
	cache0 kvsCache
}

func kvsVersion(sess *session.Session) (uint64, error) {
	h := sess.Handle(0)
	defer h.Close()
	v, err := kvs.NewClient(h).GetVersion()
	if err != nil {
		return 0, fmt.Errorf("kvs version: %w", err)
	}
	return v, nil
}

func openWindow(e *env, sess *session.Session, m *measured) (*window, error) {
	w := &window{e: e, sess: sess, m: m}
	var err error
	if w.v0, err = kvsVersion(sess); err != nil {
		return nil, err
	}
	if e.tr != nil {
		if w.cache0, err = readKVSCache(sess); err != nil {
			return nil, err
		}
	}
	w.before = snapshotAll(sess)
	m.start = readProc()
	return w, nil
}

func (w *window) close() error {
	w.m.end = readProc()
	w.m.counts.add(+1, snapshotAll(w.sess))
	w.m.counts.add(-1, w.before)
	v1, err := kvsVersion(w.sess)
	if err != nil {
		return err
	}
	w.m.kvsCommits = float64(v1 - w.v0)
	if w.e.tr != nil {
		c, err := readKVSCache(w.sess)
		if err != nil {
			return err
		}
		w.m.kvsCache = kvsCache{c.hits - w.cache0.hits, c.misses - w.cache0.misses}
	}
	return nil
}
