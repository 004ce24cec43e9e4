package kvs

import (
	"fmt"
	"testing"
	"time"

	"fluxgo/internal/session"
	"fluxgo/internal/transport"
)

// newChaosKVSSession is newKVSSession with fault injection available.
func newChaosKVSSession(t *testing.T, size, arity int) *session.Session {
	t.Helper()
	s, err := session.New(session.Options{
		Size:           size,
		Arity:          arity,
		FaultInjection: true,
		Modules:        []session.ModuleFactory{Factory(ModuleConfig{})},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// fenceBatches reads kvs.fence_batches from one rank's kvs.stats.
func fenceBatches(t *testing.T, s *session.Session, rank int) uint64 {
	t.Helper()
	h := s.Handle(rank)
	defer h.Close()
	resp, err := h.RPC("kvs.stats", uint32(rank), nil)
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Batches *uint64 `json:"fence_batches"`
	}
	if err := resp.UnpackJSON(&body); err != nil {
		t.Fatal(err)
	}
	if body.Batches == nil {
		t.Fatalf("kvs.stats at rank %d carries no fence_batches", rank)
	}
	return *body.Batches
}

// enterFence puts key=val through c and enters the fence on its own
// goroutine; the result arrives on the returned channel.
func enterFence(t *testing.T, c *Client, name string, nprocs int, key string, val int) <-chan error {
	t.Helper()
	if err := c.Put(key, val); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Fence(name, nprocs)
		done <- err
	}()
	return done
}

// awaitFence waits for every participant's result.
func awaitFence(t *testing.T, results []<-chan error) {
	t.Helper()
	for i, ch := range results {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("participant %d: %v", i, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("participant %d: fence did not complete", i)
		}
	}
}

// TestFenceAddsCoalesceWhileUnanswered: a slave keeps at most one later
// batch of a fence unanswered, so entries that arrive while it is in
// flight share the next one. Rank 1's upstream link is slowed, and 8
// clients at rank 1 enter one fence one after another, the module
// draining between them: the held batch, one add, and one add with the
// rest — not one batch per drain.
func TestFenceAddsCoalesceWhileUnanswered(t *testing.T) {
	const procs = 8
	s := newChaosKVSSession(t, 2, 2)
	s.Chaos().SetLinkFaults(1, 0, transport.Faults{Delay: 250 * time.Millisecond})
	before := fenceBatches(t, s, 1)
	var results []<-chan error
	for p := 0; p < procs; p++ {
		results = append(results, enterFence(t, client(t, s, 1), "coalesce", procs, fmt.Sprintf("co.k%d", p), p))
		time.Sleep(10 * time.Millisecond)
	}
	awaitFence(t, results)
	if n := fenceBatches(t, s, 1) - before; n > 3 {
		t.Fatalf("rank 1 sent %d fence batches for %d entries, want at most 3", n, procs)
	}
	c := client(t, s, 0)
	for p := 0; p < procs; p++ {
		var got int
		if err := c.Get(fmt.Sprintf("co.k%d", p), &got); err != nil || got != p {
			t.Fatalf("co.k%d = %d (%v), want %d", p, got, err, p)
		}
	}
}

// TestFenceLostAddResentThroughAdoptiveParent: an interior rank that
// acknowledged a child's add and died before forwarding it must not
// lose the add's entries. Rank 3's parent is rank 1, whose upstream
// link holds everything it sends; rank 1 acknowledges rank 3's add and
// is killed. Rank 3's held batch then fails, and its re-send through
// the adoptive parent must carry every entry and object the fence
// gathered, the acknowledged add's included.
func TestFenceLostAddResentThroughAdoptiveParent(t *testing.T) {
	const procs = 3
	s := newChaosKVSSession(t, 4, 2) // rank 3's parent is rank 1, whose parent is the master
	s.Chaos().SetLinkFaults(1, 0, transport.Faults{Delay: time.Hour})
	results := []<-chan error{enterFence(t, client(t, s, 3), "lostadd", procs, "lost.first", 1)}
	waitBatches(t, s, 1, 1) // rank 1 has forwarded the held batch (into the stalled link)
	results = append(results, enterFence(t, client(t, s, 3), "lostadd", procs, "lost.added", 2))
	waitBatches(t, s, 1, 2) // rank 1 acknowledged the add and forwarded it too
	if err := s.Kill(1); err != nil {
		t.Fatal(err)
	}
	results = append(results, enterFence(t, client(t, s, 0), "lostadd", procs, "lost.root", 3))
	awaitFence(t, results)
	c := client(t, s, 2)
	for key, want := range map[string]int{"lost.first": 1, "lost.added": 2, "lost.root": 3} {
		var got int
		if err := c.Get(key, &got); err != nil || got != want {
			t.Fatalf("%s = %d (%v), want %d", key, got, err, want)
		}
	}
}

// waitBatches polls rank's kvs.fence_batches until it reaches n.
func waitBatches(t *testing.T, s *session.Session, rank int, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for fenceBatches(t, s, rank) < n {
		if time.Now().After(deadline) {
			t.Fatalf("rank %d: fence_batches stayed below %d", rank, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
