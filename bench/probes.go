package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"fluxgo"
	"fluxgo/internal/broker"
	"fluxgo/internal/cas"
	"fluxgo/internal/clock"
	"fluxgo/internal/kvs"
	"fluxgo/internal/modules/resrc"
	"fluxgo/internal/modules/wexec"
	"fluxgo/internal/session"
	"fluxgo/internal/transport"
	"fluxgo/internal/wire"
)

// A probe is an isolated loop over one layer's public function, with
// the message shapes the workloads use. Probes give unit costs: what
// one call costs when nothing else runs. They run once per traced run,
// before the workload, and never feed an end-to-end metric.

// probeParams sizes the probes; selfcheck_test.go shrinks them.
type probeParams struct {
	ranks  int           // size of the probe session
	budget time.Duration // wall time of each timed loop
}

var fullProbes = probeParams{ranks: 64, budget: 150 * time.Millisecond}

// loop calls fn in batches for the budget and returns the median
// per-call nanoseconds over batches. A batch of 1 times every call.
func loop(budget time.Duration, batch int, fn func()) float64 {
	return timed(budget, func() time.Duration {
		b0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		return time.Since(b0)
	}).median() / float64(batch)
}

// timed collects the durations fn reports, one call per sample, for
// loops that must set up outside the timed part.
func timed(budget time.Duration, fn func() time.Duration) *samples {
	s := newSamples(1024)
	for t0 := time.Now(); time.Since(t0) < budget || s.n() < 5; {
		s.addDur(fn())
	}
	return s
}

// probeSizes are the two payload sizes of the workloads: a bootstrap
// value and a bulk value.
var probeSizes = []struct {
	tag string
	n   int
}{{"64", 64}, {"32k", 32 << 10}}

func probeMessage(payload int) *wire.Message {
	return &wire.Message{
		Type:    wire.Request,
		Topic:   "kvs.put",
		Nodeid:  wire.NodeidAny,
		Seq:     123,
		Route:   []string{"h:63.1", "t:rank:31"},
		Payload: make([]byte, payload),
	}
}

// recycle stands in for the transport writer a broker hands a decoded
// message to: the consumer of a handed-off message releases it.
func recycle(m *wire.Message) { m.Release() }

// probeWire times the codec every inter-broker hop pays.
func probeWire(p probeParams, out map[string]float64) error {
	for _, sz := range probeSizes {
		m := probeMessage(sz.n)
		enc, err := wire.MarshalAppend(nil, m)
		if err != nil {
			return fmt.Errorf("wire probe: %w", err)
		}
		buf := make([]byte, 0, len(enc))
		out["wire.encode_ns_"+sz.tag] = loop(p.budget, 256, func() {
			buf, _ = wire.MarshalAppend(buf[:0], m) // cannot fail: the same message encoded above
		})
		var decodeErr error
		decode := func() {
			b := wire.GetBuf(len(enc))
			copy(b, enc)
			dm, err := wire.UnmarshalPooled(b)
			if err != nil {
				decodeErr = err
				return
			}
			dm.Handoff()
			recycle(dm)
		}
		out["wire.decode_ns_"+sz.tag] = loop(p.budget, 256, decode)
		if decodeErr != nil {
			return fmt.Errorf("wire probe: %w", decodeErr)
		}
		if sz.n == 64 {
			const n = 4096
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < n; i++ {
				buf, _ = wire.MarshalAppend(buf[:0], m)
				decode()
			}
			runtime.ReadMemStats(&after)
			out["wire.allocs_roundtrip_64"] = float64(after.Mallocs-before.Mallocs) / n
		}
	}
	return nil
}

// probeTransport times one message one way through a codec pipe, the
// link every in-process session hop uses.
func probeTransport(p probeParams, out map[string]float64) error {
	for _, sz := range probeSizes {
		a, b := transport.CodecPipe("probe:a", "probe:b")
		m := probeMessage(sz.n)
		var hopErr error
		out["transport.hop_ns_"+sz.tag] = loop(p.budget, 64, func() {
			if err := a.Send(m); err != nil {
				hopErr = err
				return
			}
			if _, err := b.Recv(); err != nil {
				hopErr = err
			}
		})
		_ = a.Close() // in-memory pipe: Close only wakes the peer
		_ = b.Close()
		if hopErr != nil {
			return fmt.Errorf("transport probe: %w", hopErr)
		}
	}
	return nil
}

// probeCAS times the content-addressed store's hash, insert and
// directory encode, and one durable commit on the sandbox's disk.
func probeCAS(p probeParams, dir string, out map[string]float64) error {
	small := cas.NewValue(make([]byte, 64)).Encode()
	big := cas.NewValue(make([]byte, 32<<10)).Encode()
	var sink cas.Ref
	out["cas.hash_ns_64"] = loop(p.budget, 256, func() { sink = cas.HashOf(small) })
	out["cas.hash_ns_32k"] = loop(p.budget, 16, func() { sink = cas.HashOf(big) })

	// A fixed count, not a time budget: every insert must be a new
	// object, and each one stays in the store.
	store := cas.NewStore(clock.Real())
	puts := newSamples(512)
	for i := 0; i < 512; i++ {
		binary.LittleEndian.PutUint64(big[1:], uint64(i))
		t0 := time.Now()
		sink = store.PutRaw(big)
		puts.addDur(time.Since(t0))
	}
	out["cas.put_ns_32k"] = puts.median()

	d := cas.NewDir()
	for i := 0; i < 128; i++ {
		binary.LittleEndian.PutUint64(small[1:], uint64(i))
		d.Dir[fmt.Sprintf("key%d", i)] = cas.HashOf(small)
	}
	var enc []byte
	out["cas.encode_ns_dir128"] = loop(p.budget, 16, func() { enc = d.Encode() })
	_, _ = sink, enc

	// The durable tier is probed only: fsync in a sandbox is neither
	// stable nor a real device's, so no workload runs on it.
	walDir := filepath.Join(dir, "probe-wal")
	if err := os.RemoveAll(walDir); err != nil {
		return fmt.Errorf("cas probe: %w", err)
	}
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return fmt.Errorf("cas probe: %w", err)
	}
	defer os.RemoveAll(walDir)
	dur, err := cas.OpenDurable(cas.DirFS(), walDir, clock.Real())
	if err != nil {
		return fmt.Errorf("cas probe: open durable: %w", err)
	}
	commits := newSamples(32)
	for i := 1; i <= 24; i++ {
		binary.LittleEndian.PutUint64(small[1:], uint64(1<<32+i))
		t0 := time.Now()
		ref := dur.Store().PutRaw(small)
		if err := dur.Commit(ref, uint64(i)); err != nil {
			_ = dur.Close()
			return fmt.Errorf("cas probe: commit: %w", err)
		}
		commits.addDur(time.Since(t0))
	}
	if err := dur.Close(); err != nil {
		return fmt.Errorf("cas probe: close: %w", err)
	}
	out["cas.wal_commit_us"] = commits.median() / nsPerUs
	return nil
}

// probeSessionLife times bringing a kvs-only session up and closing it.
func probeSessionLife(p probeParams, out map[string]float64) error {
	up, down := newSamples(8), newSamples(8)
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		sess, err := session.New(session.Options{
			Size: p.ranks, Arity: 2, Codec: true,
			Modules: []session.ModuleFactory{kvs.Factory(kvs.ModuleConfig{})},
		})
		if err != nil {
			return fmt.Errorf("session probe: %w", err)
		}
		up.addDur(time.Since(t0))
		t0 = time.Now()
		sess.Close()
		down.addDur(time.Since(t0))
	}
	out["session.bringup_ms"] = up.median() / nsPerMs
	out["session.close_ms"] = down.median() / nsPerMs
	return nil
}

// faultObjects is how many objects the fault probe's get pulls down:
// the root, the "probe" and "fault" directories and the value.
const faultObjects = 4

// probeSession times single calls into broker, kvs, barrier, resrc,
// wexec and jobsvc on an otherwise idle full session.
func probeSession(p probeParams, seed int64, out map[string]float64) error {
	sess, err := fluxgo.NewSession(fluxgo.SessionOptions{Size: p.ranks, HBInterval: time.Hour, Codec: true})
	if err != nil {
		return fmt.Errorf("probe session: %w", err)
	}
	defer sess.Close()
	handles := make([]*broker.Handle, p.ranks)
	for r := range handles {
		handles[r] = sess.Handle(r)
		defer handles[r].Close()
	}
	leafRank := p.ranks - 1 // the last rank is the deepest in the tree
	depth := sess.Tree().Depth(leafRank)
	root, near, leaf := handles[0], handles[min(1, p.ranks-1)], handles[leafRank]
	nearDepth := sess.Tree().Depth(min(1, p.ranks-1))
	var errMu sync.Mutex
	var firstErr error
	note := func(err error) {
		if err == nil {
			return
		}
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}

	// broker: a request answered by the local module, and the same
	// request from the deepest leaf to the root-only resrc module; the
	// difference over the depth is one tree hop, there and back.
	avail := func(h *broker.Handle) func() {
		return func() { _, err := resrc.Avail(h); note(err) }
	}
	local := loop(p.budget, 1, avail(root))
	far := loop(p.budget, 1, avail(leaf))
	out["broker.rpc_local_us"] = local / nsPerUs
	out["broker.rpc_hop_us"] = (far - local) / float64(max(depth, 1)) / nsPerUs

	// kvs
	rng := subRNG(seed, streamProbe, 0)
	val := jsonValue(rng, 64)
	rootKV, nearKV, leafKV := kvs.NewClient(root), kvs.NewClient(near), kvs.NewClient(leaf)
	n := 0
	out["kvs.put_us"] = loop(p.budget, 1, func() {
		n++
		note(leafKV.PutRaw(fmt.Sprintf("probe.put.k%d", n), val))
	}) / nsPerUs
	out["kvs.commit_us"] = loop(p.budget, 1, func() {
		n++
		note(leafKV.PutRaw(fmt.Sprintf("probe.commit.k%d", n), val))
		_, err := leafKV.Commit()
		note(err)
	}) / nsPerUs
	out["kvs.get_cached_us"] = loop(p.budget, 1, func() {
		_, err := leafKV.GetRaw("probe.commit.k" + fmt.Sprint(n))
		note(err)
	}) / nsPerUs
	// A fault: the master commits a new key, the reader syncs to that
	// version, and its first get pulls the changed objects down the tree.
	fault := func(reader *kvs.Client) func() time.Duration {
		return func() time.Duration {
			n++
			key := fmt.Sprintf("probe.fault.k%d", n)
			note(rootKV.PutRaw(key, val))
			v, err := rootKV.Commit()
			note(err)
			note(reader.WaitVersion(v))
			t0 := time.Now()
			_, err = reader.GetRaw(key)
			note(err)
			return time.Since(t0)
		}
	}
	deepFault := timed(p.budget, fault(leafKV)).median()
	nearFault := timed(p.budget, fault(nearKV)).median()
	out["kvs.get_fault_us"] = deepFault / nsPerUs
	// T(G) of the paper's model: what one more cache level adds to a fault.
	out["kvs.fault_hop_us"] = (deepFault - nearFault) / float64(max(depth-nearDepth, 1)) / nsPerUs

	// One collective fence and one barrier over every rank, per-caller times.
	fences, enters := newSamples(4096), newSamples(4096)
	clients := make([]*kvs.Client, p.ranks)
	for r := range clients {
		clients[r] = kvs.NewClient(handles[r])
	}
	for t0 := time.Now(); time.Since(t0) < p.budget || fences.n() < 5*p.ranks; {
		n++
		name := fmt.Sprintf("probe-%d", n)
		phase(p.ranks, func(i int) {
			c0 := time.Now()
			_, err := clients[i].Fence(name, p.ranks)
			fences.addDur(time.Since(c0))
			note(err)
		})
		phase(p.ranks, func(i int) {
			c0 := time.Now()
			err := fluxgo.Barrier(handles[i], name, p.ranks)
			enters.addDur(time.Since(c0))
			note(err)
		})
	}
	out["kvs.fence_op_ms"] = fences.median() / nsPerMs
	out["barrier.enter_ms"] = enters.median() / nsPerMs
	_, tail := enters.tail()
	out["barrier.enter_ms_tail"] = tail / nsPerMs

	// resrc, wexec, jobsvc: the three steps of a job, each on its own.
	out["resrc.alloc_free_us"] = loop(p.budget, 1, func() {
		n++
		id := fmt.Sprintf("probe-%d", n)
		_, err := resrc.Alloc(root, id, 1)
		note(err)
		note(resrc.Free(root, id))
	}) / nsPerUs
	ctx, cancel := context.WithTimeout(context.Background(), stallLimit)
	defer cancel()
	out["wexec.run_wait_ms"] = loop(p.budget, 1, func() {
		n++
		id := fmt.Sprintf("probe-%d", n)
		_, err := wexec.Run(near, id, "echo", []string{"probe"}, []int{leafRank})
		note(err)
		_, err = wexec.Wait(ctx, near, id)
		note(err)
	}) / nsPerMs
	submits, waits := newSamples(1024), newSamples(1024)
	for t0 := time.Now(); time.Since(t0) < p.budget || submits.n() < 5; {
		c0 := time.Now()
		id, err := fluxgo.SubmitJob(near, fluxgo.JobSpec{Program: "echo", Args: []string{"probe"}, Nodes: 1})
		submits.addDur(time.Since(c0))
		note(err)
		c0 = time.Now()
		_, err = fluxgo.WaitJob(ctx, near, id)
		waits.addDur(time.Since(c0))
		note(err)
	}
	out["jobsvc.submit_us"] = submits.median() / nsPerUs
	out["jobsvc.wait_ms"] = waits.median() / nsPerMs
	if firstErr != nil {
		return fmt.Errorf("session probe: %w", firstErr)
	}
	return nil
}

// runProbes runs every probe and returns their values keyed by metric
// name, in each metric's unit.
func runProbes(p probeParams, seed int64, dir string) (map[string]float64, error) {
	out := make(map[string]float64)
	if err := probeWire(p, out); err != nil {
		return nil, err
	}
	if err := probeTransport(p, out); err != nil {
		return nil, err
	}
	if err := probeCAS(p, dir, out); err != nil {
		return nil, err
	}
	if err := probeSessionLife(p, out); err != nil {
		return nil, err
	}
	if err := probeSession(p, seed, out); err != nil {
		return nil, err
	}
	return out, nil
}
