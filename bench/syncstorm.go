package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fluxgo"
	"fluxgo/internal/broker"
	"fluxgo/internal/wire"
)

// syncParams shapes sync_storm: barrier rounds and event pings one at
// a time, then event bursts. No KVS or CAS work at all.
type syncParams struct {
	ranks       int
	subscribers int
	burstPubs   int // concurrent publishers of a burst
	burstEvents int // events each publishes per burst
	warmupOps   int
	opShare     float64 // share of the window spent on barrier+ping operations
}

var syncStorm = syncParams{ranks: 64, subscribers: 8, burstPubs: 2, burstEvents: 256, warmupOps: 200, opShare: 0.6}

// stallLimit bounds every wait for an event: a lost event fails the
// run instead of hanging it.
const stallLimit = 30 * time.Second

// Event topics share one prefix, so one subscription per subscriber
// sees pings and bursts in the session's total order.
const (
	topicPrefix = "bench"
	topicPing   = "bench.ping"
	topicBurst  = "bench.burst"
)

// subscriber is one event consumer and the last sequence number it saw.
type subscriber struct {
	h       *broker.Handle
	sub     *broker.Subscription
	lastSeq uint64
}

// next takes the subscriber's next event, checking that sequence
// numbers only ascend.
func (s *subscriber) next(e *env, stall *time.Timer) (*wire.Message, bool) {
	select {
	case ev, ok := <-s.sub.Chan():
		if !e.check(ok && ev.Seq > s.lastSeq, "subscriber at rank %d: event seq %d after %d (open %v)", s.h.Rank(), seqOf(ev), s.lastSeq, ok) {
			return nil, false
		}
		s.lastSeq = ev.Seq
		return ev, true
	case <-stall.C:
		e.check(false, "subscriber at rank %d: no event within %s", s.h.Rank(), stallLimit)
		return nil, false
	}
}

func seqOf(m *wire.Message) uint64 {
	if m == nil {
		return 0
	}
	return m.Seq
}

// syncState is the long-lived session of sync_storm.
type syncState struct {
	p       syncParams
	sess    *fluxgo.Session
	handles []*broker.Handle // one per rank, the barrier participants
	pubs    []*broker.Handle
	subs    []*subscriber
}

// spread returns n ranks spaced evenly from rank 0 to the last rank,
// which in a binary tree covers every depth from root to deepest leaf.
func spread(n, size int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i * (size - 1) / max(n-1, 1)
	}
	return out
}

func syncUp(e *env, p syncParams) (*syncState, error) {
	sess, err := fluxgo.NewSession(fluxgo.SessionOptions{Size: p.ranks, HBInterval: time.Hour, Codec: true})
	if err != nil {
		return nil, fmt.Errorf("NewSession: %w", err)
	}
	s := &syncState{p: p, sess: sess}
	for r := 0; r < p.ranks; r++ {
		s.handles = append(s.handles, sess.Handle(r))
	}
	// Publishers sit at the deepest ranks: every event first climbs the
	// whole tree to the root sequencer.
	for i := 0; i < p.burstPubs; i++ {
		s.pubs = append(s.pubs, sess.Handle(p.ranks-1-i))
	}
	for _, r := range spread(p.subscribers, p.ranks) {
		h := sess.Handle(r)
		sub, err := h.Subscribe(topicPrefix)
		if err != nil {
			s.down()
			return nil, fmt.Errorf("subscribe at rank %d: %w", r, err)
		}
		s.subs = append(s.subs, &subscriber{h: h, sub: sub})
	}
	for i := 0; i < p.warmupOps; i++ {
		s.op(e, -i)
	}
	s.burst(e)
	return s, nil
}

func (s *syncState) down() {
	for _, sub := range s.subs {
		sub.sub.Close()
		sub.h.Close()
	}
	for _, h := range s.pubs {
		h.Close()
	}
	for _, h := range s.handles {
		h.Close()
	}
	s.sess.Close()
}

// syncOp is what one barrier+ping operation measured.
type syncOp struct {
	barrier, publish, deliver, wall time.Duration
}

// op runs one barrier round over every rank, then publishes one event
// from the deepest rank and waits until every subscriber has it.
func (s *syncState) op(e *env, op int) syncOp {
	var r syncOp
	root := e.tr.begin("op", open{}, op)
	t0 := time.Now()

	name := fmt.Sprintf("bench-%d", op)
	var entered atomic.Int64
	stage := e.tr.begin("sync", root, op)
	r.barrier = phase(s.p.ranks, func(i int) {
		entered.Add(1)
		call := e.tr.begin("barrier.Enter", stage, op)
		err := fluxgo.Barrier(s.handles[i], name, s.p.ranks)
		e.tr.end(call)
		// Nobody may leave before everybody has entered.
		e.check(err == nil && entered.Load() == int64(s.p.ranks),
			"barrier %s: rank %d returned (err %v) with %d of %d entered", name, i, err, entered.Load(), s.p.ranks)
	})
	e.tr.end(stage)

	stall := time.NewTimer(stallLimit)
	defer stall.Stop()
	consume := e.tr.begin("consume", root, op)
	produce := e.tr.begin("produce", root, op)
	call := e.tr.begin("broker.PublishEvent", produce, op)
	t1 := time.Now()
	seq, err := s.pubs[0].PublishEvent(topicPing, map[string]int{"op": op})
	r.publish = time.Since(t1)
	e.tr.end(call)
	e.tr.end(produce)
	if e.checkErr(err, "publish ping") {
		for _, sub := range s.subs {
			recv := e.tr.begin("event.receive", consume, op)
			ev, ok := sub.next(e, stall)
			e.tr.end(recv)
			if !ok {
				break
			}
			var body struct {
				Op int `json:"op"`
			}
			err := ev.UnpackJSON(&body)
			e.check(err == nil && ev.Topic == topicPing && ev.Seq == seq && body.Op == op,
				"ping %d: subscriber at rank %d got %s seq %d op %d (err %v), published seq %d", op, sub.h.Rank(), ev.Topic, ev.Seq, body.Op, err, seq)
		}
	}
	r.deliver = time.Since(t1)
	e.tr.end(consume)
	r.wall = time.Since(t0)
	e.tr.end(root)
	return r
}

// burst has every publisher send its events back to back and returns
// the time until every subscriber holds all of them, in ascending
// sequence and with none missing.
func (s *syncState) burst(e *env) time.Duration {
	total := s.p.burstPubs * s.p.burstEvents
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, pub := range s.pubs {
		wg.Add(1)
		go func(pub *broker.Handle) {
			defer wg.Done()
			for i := 0; i < s.p.burstEvents; i++ {
				if _, err := pub.PublishEvent(topicBurst, nil); !e.checkErr(err, "publish burst") {
					return
				}
			}
		}(pub)
	}
	for _, sub := range s.subs {
		wg.Add(1)
		go func(sub *subscriber) {
			defer wg.Done()
			stall := time.NewTimer(stallLimit)
			defer stall.Stop()
			for got := 0; got < total; got++ {
				if _, ok := sub.next(e, stall); !ok {
					return
				}
			}
		}(sub)
	}
	wg.Wait()
	return time.Since(t0)
}

// runSync is the sync_storm workload.
func runSync(e *env, p syncParams) (*measured, error) {
	var s *syncState
	setup, down, err := e.measureSetup(func() (func(), error) {
		st, err := syncUp(e, p)
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

	m := newMeasured(setup, 1<<16)
	// Subscribers are drained one after the other, so the time to the
	// last of them is the consume stage itself, not any one receive.
	m.stageCalls = [3]string{"broker.PublishEvent", "barrier.Enter", "consume"}
	watch := watchGoroutines()
	w, err := openWindow(e, s.sess, m)
	if err != nil {
		return nil, err
	}
	opWindow := time.Duration(float64(e.window) * p.opShare)
	for op := 1; time.Since(m.start.at) < opWindow; op++ {
		r := s.op(e, op)
		m.produce.addDur(r.publish)
		m.sync.addDur(r.barrier)
		m.consume.addDur(r.deliver)
		m.addOp(e.tr, op, r.wall)
		m.ops++
	}
	if err := w.close(); err != nil {
		return nil, err
	}

	// Burst segment: events delivered to every subscriber per second,
	// one sample per burst.
	rates := newSamples(1024)
	for first := true; first || time.Since(m.start.at) < e.window; first = false {
		d := s.burst(e)
		rates.add(float64(p.burstPubs*p.burstEvents) / d.Seconds())
	}
	m.opsPerS = rates.median()
	m.goroutinesPeak = watch.finish()
	return m, nil
}
