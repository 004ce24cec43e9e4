package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"fluxgo/internal/kvs"
	"fluxgo/internal/session"
)

// kapParams shapes a PMI-style bootstrap round: procs attach
// round-robin to ranks, the first `objects` of them put one value
// each, all fence, and every proc gets `gets` distinct objects.
type kapParams struct {
	ranks, procsPerRank int
	objects             int
	valueSize           int
	gets                int
	dirFanout           int
	warmupRounds        int
}

func (p kapParams) procs() int { return p.ranks * p.procsPerRank }

// clientBytes is the value payload crossing the client API per round.
func (p kapParams) clientBytes() float64 {
	return float64((p.objects + p.procs()*p.gets) * (p.valueSize + 2))
}

var (
	// Many tiny messages through a depth-6 tree: per-message cost dominates.
	kapBootstrap = kapParams{ranks: 64, procsPerRank: 4, objects: 256, valueSize: 64, gets: 8, dirFanout: 128, warmupRounds: 3}
	// Same round, opposite cost structure: ~2 MiB up and ~8 MiB down.
	kapBulk = kapParams{ranks: 16, procsPerRank: 4, objects: 64, valueSize: 32 << 10, gets: 4, dirFanout: 128, warmupRounds: 3}
)

// kapRound is what one round measured.
type kapRound struct {
	bringup, put, fence, get, closing time.Duration
}

func (r kapRound) wall() time.Duration  { return r.put + r.fence + r.get }
func (r kapRound) cycle() time.Duration { return r.bringup + r.wall() + r.closing }

// phase releases n goroutines at once and returns the wall time until
// the last one finishes: the max over processes of a KAP phase.
func phase(n int, fn func(i int)) time.Duration {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			fn(i)
		}(i)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	return time.Since(t0)
}

// kapRun runs round number op on a fresh kvs-only session. m, when
// non-nil, receives the session's counters before it closes.
func kapRun(e *env, p kapParams, op int, m *measured) (kapRound, error) {
	in := genKAP(e.seed, op, p)
	var r kapRound
	root := e.tr.begin("op", open{}, op)

	sp := e.tr.begin("session.New", root, op)
	t0 := time.Now()
	sess, err := session.New(session.Options{
		Size:    p.ranks,
		Arity:   2,
		Codec:   true,
		Modules: []session.ModuleFactory{kvs.Factory(kvs.ModuleConfig{})},
	})
	if err != nil {
		return r, fmt.Errorf("session.New: %w", err)
	}
	clients := make([]*kvs.Client, p.procs())
	for i := range clients {
		clients[i] = kvs.NewClient(sess.Handle(i % p.ranks))
	}
	r.bringup = time.Since(t0)
	e.tr.end(sp)

	stage := e.tr.begin("produce", root, op)
	r.put = phase(p.objects, func(i int) {
		call := e.tr.begin("kvs.PutRaw", stage, op)
		err := clients[i].PutRaw(in.keys[i], in.values[i])
		e.tr.end(call)
		e.checkErr(err, "put "+in.keys[i])
	})
	e.tr.end(stage)

	versions := make([]uint64, p.procs())
	stage = e.tr.begin("sync", root, op)
	r.fence = phase(p.procs(), func(i int) {
		call := e.tr.begin("kvs.Fence", stage, op)
		v, err := clients[i].Fence("kap.sync", p.procs())
		e.tr.end(call)
		versions[i] = v
		e.checkErr(err, "fence")
	})
	e.tr.end(stage)
	for i, v := range versions {
		// Every participant of one fence sees the same new root.
		e.check(v != 0 && v == versions[0], "round %d: proc %d fence version %d, proc 0 got %d", op, i, v, versions[0])
	}

	stage = e.tr.begin("consume", root, op)
	r.get = phase(p.procs(), func(i int) {
		for _, idx := range in.reads[i] {
			call := e.tr.begin("kvs.GetRaw", stage, op)
			raw, err := clients[i].GetRaw(in.keys[idx])
			e.tr.end(call)
			e.check(err == nil && bytes.Equal(raw, in.values[idx]),
				"round %d: proc %d get %s: err %v, %d bytes, want %d", op, i, in.keys[idx], err, len(raw), len(in.values[idx]))
		}
	})
	e.tr.end(stage)

	if m != nil {
		m.counts.add(+1, snapshotAll(sess))
		m.kvsCommits += float64(versions[0])
		if e.tr != nil {
			c, err := readKVSCache(sess)
			if err != nil {
				return r, err
			}
			m.kvsCache.hits += c.hits
			m.kvsCache.misses += c.misses
		}
	}

	sp = e.tr.begin("session.Close", root, op)
	t0 = time.Now()
	for _, c := range clients {
		c.Handle().Close()
	}
	sess.Close()
	r.closing = time.Since(t0)
	e.tr.end(sp)
	e.tr.end(root)

	// Every round starts from a collected heap, so a collection owed to
	// the previous round's garbage does not land in this round's phases.
	runtime.GC()
	return r, nil
}

// runKAP is the kap_bootstrap and kap_bulk workload.
func runKAP(e *env, p kapParams) (*measured, error) {
	setup, _, err := e.measureSetup(func() (func(), error) {
		for i := 0; i < p.warmupRounds; i++ {
			if _, err := kapRun(e, p, -1-i, nil); err != nil {
				return nil, err
			}
		}
		return func() {}, nil
	})
	if err != nil {
		return nil, err
	}

	m := newMeasured(setup, 4096)
	m.stageCalls = [3]string{"kvs.PutRaw", "kvs.Fence", "kvs.GetRaw"}
	m.clientBytesPerOp = p.clientBytes()
	m.consumers = p.procs()
	m.modelObjects = p.objects + (p.objects+p.dirFanout-1)/p.dirFanout + 2 // values, their directories, "kap" and the root
	cycles := newSamples(4096)
	watch := watchGoroutines()
	m.start = readProc()
	for op := 1; time.Since(m.start.at) < e.window; op++ {
		r, err := kapRun(e, p, op, m)
		if err != nil {
			return nil, err
		}
		m.produce.addDur(r.put)
		m.sync.addDur(r.fence)
		m.consume.addDur(r.get)
		m.addOp(e.tr, op, r.wall())
		cycles.addDur(r.cycle())
		m.ops++
	}
	m.end = readProc()
	m.goroutinesPeak = watch.finish()
	// Rounds per second of system time: bring-up, the three phases and
	// close, without the benchmark's own input generation between rounds.
	m.opsPerS = float64(time.Second) / cycles.median()
	return m, nil
}
