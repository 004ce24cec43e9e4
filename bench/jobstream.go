package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fluxgo"
	"fluxgo/internal/broker"
	"fluxgo/internal/kvs"
	"fluxgo/internal/modules/wexec"
)

// jobParams shapes job_stream: zero-length echo jobs through the batch
// job service, so every millisecond measured is framework overhead.
type jobParams struct {
	ranks      int
	submitters []int // ranks the submitting clients attach to
	maxNodes   int   // throughput jobs ask for 1..maxNodes nodes
	// latencyNodes is what every job timed for latency asks for: the
	// median of a mix of sizes sits on the boundary between two sizes
	// and jumps with the mix.
	latencyNodes int
	singleShare  float64 // share of the window with one submitter, one job at a time
	closedShare  float64 // share with every submitter, one job in flight each
	openRate     float64 // open-loop arrivals per second, for the rest of the window
	inFlight     int     // open-loop cap on concurrently outstanding jobs
	warmupJobs   int
}

var jobStream = jobParams{
	ranks: 16, submitters: []int{3, 6, 9, 12}, maxNodes: 4, latencyNodes: 2,
	singleShare: 0.4, closedShare: 0.4, openRate: 25, inFlight: 256, warmupJobs: 200,
}

type jobState struct {
	p       jobParams
	sess    *fluxgo.Session
	handles []*broker.Handle
	nextOp  atomic.Int64
	// staleReads counts output reads that found the job's keys missing
	// after WaitJob had returned, warm-up included.
	staleReads atomic.Int64
}

func jobsUp(e *env, p jobParams) (*jobState, error) {
	sess, err := fluxgo.NewSession(fluxgo.SessionOptions{Size: p.ranks, HBInterval: time.Hour, Codec: true})
	if err != nil {
		return nil, fmt.Errorf("NewSession: %w", err)
	}
	s := &jobState{p: p, sess: sess}
	for _, r := range p.submitters {
		s.handles = append(s.handles, sess.Handle(r))
	}
	per := p.warmupJobs / len(s.handles)
	s.closedLoop(e, s.handles, streamProbe, 1, p.maxNodes, func(done int) bool { return done < per }, nil)
	return s, nil
}

func (s *jobState) down() {
	for _, h := range s.handles {
		h.Close()
	}
	s.sess.Close()
}

// jobTimes is what one job measured.
type jobTimes struct {
	submit, wait, fetch time.Duration
	waited              time.Time // when WaitJob returned
	ok                  bool
}

// job submits one echo job, waits for it and reads its output back,
// verifying every step.
func (s *jobState) job(e *env, h *broker.Handle, op int, in jobInput) jobTimes {
	var t jobTimes
	root := e.tr.begin("op", open{}, op)
	defer e.tr.end(root)

	stage := e.tr.begin("produce", root, op)
	call := e.tr.begin("jobsvc.Submit", stage, op)
	t0 := time.Now()
	id, err := fluxgo.SubmitJob(h, fluxgo.JobSpec{Program: "echo", Args: []string{in.token}, Nodes: in.nodes})
	t.submit = time.Since(t0)
	e.tr.end(call)
	e.tr.end(stage)
	if !e.checkErr(err, "submit") {
		return t
	}

	ctx, cancel := context.WithTimeout(context.Background(), stallLimit)
	defer cancel()
	stage = e.tr.begin("sync", root, op)
	call = e.tr.begin("jobsvc.Wait", stage, op)
	t0 = time.Now()
	info, err := fluxgo.WaitJob(ctx, h, id)
	t.waited = time.Now()
	t.wait = t.waited.Sub(t0)
	e.tr.end(call)
	e.tr.end(stage)
	if !e.check(err == nil && info.State == "complete" && info.Exit == 0 && len(info.Ranks) == in.nodes,
		"job %s: err %v, record %+v, want complete on %d nodes", id, err, info, in.nodes) {
		return t
	}

	stage = e.tr.begin("consume", root, op)
	call = e.tr.begin("wexec.Output", stage, op)
	t0 = time.Now()
	stdout, _, exit, err := wexec.Output(h, "job-"+id, info.Ranks[0])
	// WaitJob can return before the submitter's KVS root holds the
	// task's output commit: about one job in a few thousand reads "no
	// such key" and finds the key a millisecond later. That is the
	// event-before-request causality gap ROADMAP lists as a blocker,
	// not a lost write, so the read is repeated until the root catches
	// up, its whole duration counts as consume time, and the stale
	// reads are reported instead of hidden.
	for err != nil && kvs.ErrNotFound(err) && time.Since(t0) < stallLimit {
		s.staleReads.Add(1)
		time.Sleep(200 * time.Microsecond)
		stdout, _, exit, err = wexec.Output(h, "job-"+id, info.Ranks[0])
	}
	t.fetch = time.Since(t0)
	e.tr.end(call)
	e.tr.end(stage)
	t.ok = e.check(err == nil && exit == 0 && stdout == in.token+"\n",
		"job %s: output %q exit %d err %v, want %q", id, stdout, exit, err, in.token+"\n")
	return t
}

// closedLoop runs one submitter per handle, each with one job in
// flight, while more(done) holds for that submitter's completed count.
// Jobs ask for minNodes..maxNodes nodes. record, when non-nil, receives
// every completed job. It returns the jobs completed and the time until
// the last finished.
func (s *jobState) closedLoop(e *env, handles []*broker.Handle, stream, minNodes, maxNodes int, more func(done int) bool, record func(op int, t jobTimes)) (int, time.Duration) {
	var wg sync.WaitGroup
	var completed atomic.Int64
	t0 := time.Now()
	for i, h := range handles {
		wg.Add(1)
		go func(i int, h *broker.Handle) {
			defer wg.Done()
			rng := subRNG(e.seed, stream, i)
			for done := 0; more(done); done++ {
				op := int(s.nextOp.Add(1))
				t := s.job(e, h, op, genJob(rng, minNodes, maxNodes))
				if !t.ok {
					return
				}
				completed.Add(1)
				if record != nil {
					record(op, t)
				}
			}
		}(i, h)
	}
	wg.Wait()
	return int(completed.Load()), time.Since(t0)
}

// openLoop submits the arrivals on schedule whatever the system's
// pace, timing each job from when it was due. Its latencies are
// diagnostics, not metrics: see README.md.
func (s *jobState) openLoop(e *env, arrivals []jobInput, m *measured) int {
	var wg sync.WaitGroup
	var completed atomic.Int64
	slots := make(chan struct{}, s.p.inFlight) // counting semaphore: bounds goroutines if the system stalls
	t0 := time.Now()
	for n, in := range arrivals {
		due := t0.Add(in.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		m.genLate.addDur(time.Since(due))
		slots <- struct{}{}
		wg.Add(1)
		go func(n int, in jobInput) {
			defer wg.Done()
			defer func() { <-slots }()
			t := s.job(e, s.handles[n%len(s.handles)], int(s.nextOp.Add(1)), in)
			if !t.ok {
				return
			}
			completed.Add(1)
			m.openLoop.addDur(t.waited.Sub(due))
		}(n, in)
	}
	wg.Wait()
	return int(completed.Load())
}

// runJobs is the job_stream workload.
func runJobs(e *env, p jobParams) (*measured, error) {
	var s *jobState
	setup, down, err := e.measureSetup(func() (func(), error) {
		st, err := jobsUp(e, p)
		if err != nil {
			return nil, err
		}
		s = st
		return st.down, nil
	})
	if err != nil {
		return nil, err
	}
	defer down()

	m := newMeasured(setup, 1<<14)
	m.genLate, m.openLoop = newSamples(1<<12), newSamples(1<<12)
	m.stageCalls = [3]string{"jobsvc.Submit", "jobsvc.Wait", "wexec.Output"}
	watch := watchGoroutines()
	w, err := openWindow(e, s.sess, m)
	if err != nil {
		return nil, err
	}
	share := func(f float64) time.Duration { return time.Duration(float64(e.window) * f) }

	// Segment A, closed loop, one client: latency of one job at a time
	// through the whole stack, with nothing queued behind or beside it.
	t0 := time.Now()
	single, _ := s.closedLoop(e, s.handles[:1], streamJobsSingle, p.latencyNodes, p.latencyNodes, func(int) bool { return time.Since(t0) < share(p.singleShare) },
		func(op int, t jobTimes) {
			m.produce.addDur(t.submit)
			m.sync.addDur(t.wait)
			m.consume.addDur(t.fetch)
			m.addOp(e.tr, op, t.submit+t.wait)
		})

	// Segment B, closed loop, one client per submitter rank: throughput.
	t0 = time.Now()
	closed, took := s.closedLoop(e, s.handles, streamJobsClosed, 1, p.maxNodes, func(int) bool { return time.Since(t0) < share(p.closedShare) }, nil)
	m.opsPerS = float64(closed) / took.Seconds()

	// Segment C, open loop for the rest of the window: seeded Poisson
	// arrivals at a fixed rate, each timed from when it was due.
	open := s.openLoop(e, genArrivals(e.seed, p.openRate, share(1-p.singleShare-p.closedShare), p.latencyNodes), m)

	m.ops = single + closed + open
	m.jobs = m.ops
	m.staleReads = int(s.staleReads.Load())
	if err := w.close(); err != nil {
		return nil, err
	}
	m.goroutinesPeak = watch.finish()
	return m, nil
}
