package kvs

import (
	"sync"
	"testing"
	"time"

	"fluxgo/internal/broker"
	"fluxgo/internal/cas"
	"fluxgo/internal/session"
	"fluxgo/internal/wire"
)

// fenceEncodings are the two forms a fence batch travels in; every
// fence-protocol test runs on both.
var fenceEncodings = []struct {
	name string
	of   func(fenceBody) any
}{
	{"json", func(b fenceBody) any { return b }},
	{"binary", func(b fenceBody) any { return b.bin() }},
}

// TestFenceEntryDedup: retransmitted fence batches (what an RPC retry or
// a fault-duplicated link delivery produces) must not inflate the
// participant count or re-apply ops.
func TestFenceEntryDedup(t *testing.T) {
	for _, enc := range fenceEncodings {
		t.Run(enc.name, func(t *testing.T) {
			s := newKVSSession(t, 1, 2)
			c := client(t, s, 0)
			h := c.Handle()

			if err := c.Put("dedup.key", 1); err != nil {
				t.Fatal(err)
			}
			ops := c.takePending()
			body := fenceBody{
				Name:    "dedupfence",
				NProcs:  2,
				Entries: []fenceEntry{{ID: "dedupfence/p0", Ops: ops}},
			}

			// The same entry delivered three times counts one participant: the
			// fence must stay incomplete (the RPCs park as pending requests, so
			// probe via fire-and-forget sends and the version counter).
			for i := 0; i < 3; i++ {
				if err := h.Send("kvs.fence", wire.NodeidAny, enc.of(body)); err != nil {
					t.Fatal(err)
				}
			}
			if v, err := c.GetVersion(); err != nil || v != 0 {
				t.Fatalf("version = %d (err %v) after duplicate entries, want 0", v, err)
			}

			// A distinct second participant completes the fence exactly once.
			done := fenceBody{
				Name:    "dedupfence",
				NProcs:  2,
				Entries: []fenceEntry{{ID: "dedupfence/p1"}},
			}
			resp, err := h.RPC("kvs.fence", wire.NodeidAny, enc.of(done))
			if err != nil {
				t.Fatal(err)
			}
			var root rootBody
			if err := resp.UnpackJSON(&root); err != nil {
				t.Fatal(err)
			}
			if root.Version != 1 {
				t.Fatalf("fence completed at version %d, want 1", root.Version)
			}
			var got int
			if err := c.Get("dedup.key", &got); err != nil || got != 1 {
				t.Fatalf("dedup.key = %d (err %v), want 1", got, err)
			}
		})
	}
}

// TestFenceReplyCache: a batch retried after the fence completed (its
// response was lost) is answered from the master's reply cache with the
// original result — it must not seed a phantom fence or advance the
// version again.
func TestFenceReplyCache(t *testing.T) {
	for _, enc := range fenceEncodings {
		t.Run(enc.name, func(t *testing.T) {
			s := newKVSSession(t, 1, 2)
			c := client(t, s, 0)
			h := c.Handle()

			if err := c.Put("cached.key", "v"); err != nil {
				t.Fatal(err)
			}
			body := fenceBody{
				Name:    "cachedfence",
				NProcs:  1,
				Entries: []fenceEntry{{ID: "cachedfence/p0", Ops: c.takePending()}},
			}
			first, err := h.RPC("kvs.fence", wire.NodeidAny, enc.of(body))
			if err != nil {
				t.Fatal(err)
			}
			var r1 rootBody
			if err := first.UnpackJSON(&r1); err != nil {
				t.Fatal(err)
			}

			// Retry of the identical batch after completion.
			second, err := h.RPC("kvs.fence", wire.NodeidAny, enc.of(body))
			if err != nil {
				t.Fatal(err)
			}
			var r2 rootBody
			if err := second.UnpackJSON(&r2); err != nil {
				t.Fatal(err)
			}
			if r2 != r1 {
				t.Fatalf("replayed fence answered %+v, want cached %+v", r2, r1)
			}
			if v, _ := c.GetVersion(); v != r1.Version {
				t.Fatalf("version advanced to %d by replayed fence", v)
			}
		})
	}
}

// TestFenceObjectHashMismatch: a batch whose object does not hash to
// the reference it travels under fails the whole fence with EPROTO and
// leaves the root alone, and the failure is cached like any other — a
// retry of the same name, even one carrying the right object, gets the
// same answer. Both body encodings, entered at the master and at a
// slave (which forwards objects unchecked; the master is the check).
func TestFenceObjectHashMismatch(t *testing.T) {
	s := newKVSSession(t, 3, 2)
	good := cas.NewValue([]byte(`"good"`)).Encode()
	evil := cas.NewValue([]byte(`"evil"`)).Encode()
	ref := cas.HashOf(good).String()
	for _, at := range []struct {
		where string
		rank  int
	}{{"master", 0}, {"slave", 2}} {
		for _, enc := range fenceEncodings {
			name := at.where + "-" + enc.name
			t.Run(name, func(t *testing.T) {
				c := client(t, s, at.rank)
				h := c.Handle()
				before, err := c.GetVersion()
				if err != nil {
					t.Fatal(err)
				}
				batch := func(data []byte) any {
					body := fenceBody{
						Name:    "badobj." + name,
						NProcs:  1,
						Entries: []fenceEntry{{ID: "badobj." + name + "/p0", Ops: []Op{{Key: "bad." + name, Ref: ref}}}},
						Objects: map[string][]byte{ref: data},
					}
					return enc.of(body)
				}
				_, err = h.RPC("kvs.fence", wire.NodeidAny, batch(evil))
				if !wire.IsErrnum(err, broker.ErrnoProto) {
					t.Fatalf("fence with a corrupt object: %v, want EPROTO", err)
				}
				if v, err := c.GetVersion(); err != nil || v != before {
					t.Fatalf("version = %d (err %v) after the failed fence, want %d", v, err, before)
				}
				_, retryErr := h.RPC("kvs.fence", wire.NodeidAny, batch(good))
				if !wire.IsErrnum(retryErr, broker.ErrnoProto) || retryErr.Error() != err.Error() {
					t.Fatalf("retry of the failed fence: %v, want the cached %v", retryErr, err)
				}
				if v, err := c.GetVersion(); err != nil || v != before {
					t.Fatalf("version = %d (err %v) after the retry, want %d", v, err, before)
				}
				if _, err := c.GetRef("bad." + name); !ErrNotFound(err) {
					t.Fatalf("key of the failed fence: %v, want ENOENT", err)
				}
			})
		}
	}
}

// TestFenceThroughDyingAggregator: an interior rank that dies while it
// holds a child's fence batch must not fail the fence. Its broker's
// shutdown fails the module's handle first, so the batch it forwards
// upstream fails with a shutdown error while its module and child link
// still answer; the held batch must then get a retryable errno, so the
// leaf's retry reaches the master through its adoptive parent. The test
// freezes rank 1 at exactly that point (its kvs handle closed, the rest
// alive) until the leaf has had its answer, then kills it.
func TestFenceThroughDyingAggregator(t *testing.T) {
	var mu sync.Mutex
	mods := map[int]*Module{}
	s, err := session.New(session.Options{
		Size:  4, // rank 3's parent is rank 1, whose parent is the master
		Arity: 2,
		Modules: []session.ModuleFactory{func(rank, size int) broker.Module {
			m := NewModule(ModuleConfig{})
			mu.Lock()
			mods[rank] = m
			mu.Unlock()
			return m
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	leaf, root := client(t, s, 3), client(t, s, 0)
	if err := leaf.Put("dying.leaf", 3); err != nil {
		t.Fatal(err)
	}
	if err := root.Put("dying.root", 0); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	aggregator := mods[1]
	mu.Unlock()
	aggregator.h.Close()

	type result struct {
		ver uint64
		err error
	}
	results := make(chan result, 2)
	for _, c := range []*Client{leaf, root} {
		go func(c *Client) {
			v, err := c.Fence("dying", 2)
			results <- result{v, err}
		}(c)
	}
	// The leaf's batch meets the failing aggregator at once; give the
	// answer time to come back before rank 1 goes.
	time.Sleep(200 * time.Millisecond)
	if err := s.Kill(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		select {
		case r := <-results:
			if r.err != nil || r.ver != 1 {
				t.Fatalf("fence participant: version %d, %v; want version 1", r.ver, r.err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("fence did not complete")
		}
	}
	var got int
	if err := root.Get("dying.leaf", &got); err != nil || got != 3 {
		t.Fatalf("dying.leaf = %d (%v), want 3", got, err)
	}
}
