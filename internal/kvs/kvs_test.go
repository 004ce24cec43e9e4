package kvs

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"fluxgo/internal/session"
)

// newKVSSession starts a session with the kvs module at every rank.
func newKVSSession(t testing.TB, size, arity int) *session.Session {
	t.Helper()
	s, err := session.New(session.Options{
		Size:    size,
		Arity:   arity,
		Modules: []session.ModuleFactory{Factory(ModuleConfig{})},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func client(t testing.TB, s *session.Session, rank int) *Client {
	t.Helper()
	h := s.Handle(rank)
	t.Cleanup(h.Close)
	return NewClient(h)
}

func TestPutCommitGetSingleRank(t *testing.T) {
	s := newKVSSession(t, 1, 2)
	c := client(t, s, 0)
	if err := c.Put("a.b.c", 42); err != nil {
		t.Fatal(err)
	}
	ver, err := c.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if ver != 1 {
		t.Fatalf("version = %d, want 1", ver)
	}
	var got int
	if err := c.Get("a.b.c", &got); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("a.b.c = %d, want 42", got)
	}
}

func TestGetMissingKey(t *testing.T) {
	s := newKVSSession(t, 1, 2)
	c := client(t, s, 0)
	err := c.Get("no.such.key", nil)
	if err == nil || !ErrNotFound(err) {
		t.Fatalf("err = %v, want not-found", err)
	}
	// Also before any commit at all.
	c.Put("x", 1)
	c.Commit()
	err = c.Get("y", nil)
	if !ErrNotFound(err) {
		t.Fatalf("err = %v, want not-found", err)
	}
}

func TestReadYourWritesAcrossRanks(t *testing.T) {
	s := newKVSSession(t, 7, 2)
	writer := client(t, s, 5) // a leaf
	if err := writer.Put("w.key", "hello"); err != nil {
		t.Fatal(err)
	}
	ver, err := writer.Commit()
	if err != nil {
		t.Fatal(err)
	}
	// The committing process must immediately see its own write, with no
	// extra synchronization (read-your-writes).
	var got string
	if err := writer.Get("w.key", &got); err != nil {
		t.Fatal(err)
	}
	if got != "hello" {
		t.Fatalf("got %q", got)
	}
	if ver == 0 {
		t.Fatal("commit returned version 0")
	}
}

func TestCausalConsistencyViaWaitVersion(t *testing.T) {
	s := newKVSSession(t, 7, 2)
	a := client(t, s, 3)
	b := client(t, s, 6)
	// Process A updates and "communicates" the version to process B.
	a.Put("causal.x", 99)
	ver, err := a.Commit()
	if err != nil {
		t.Fatal(err)
	}
	// B waits for that version, then must observe the update.
	if err := b.WaitVersion(ver); err != nil {
		t.Fatal(err)
	}
	var got int
	if err := b.Get("causal.x", &got); err != nil {
		t.Fatal(err)
	}
	if got != 99 {
		t.Fatalf("causal.x = %d at B, want 99", got)
	}
}

func TestMonotonicReadConsistency(t *testing.T) {
	s := newKVSSession(t, 7, 2)
	w := client(t, s, 0)
	r := client(t, s, 6)
	var lastSeen int
	for i := 1; i <= 20; i++ {
		w.Put("mono.x", i)
		ver, err := w.Commit()
		if err != nil {
			t.Fatal(err)
		}
		_ = ver
		var got int
		if err := r.Get("mono.x", &got); err != nil {
			if ErrNotFound(err) {
				continue // reader's root may lag; absence is not regression
			}
			t.Fatal(err)
		}
		if got < lastSeen {
			t.Fatalf("monotonic read violated: saw %d after %d", got, lastSeen)
		}
		lastSeen = got
	}
}

func TestDeleteKey(t *testing.T) {
	s := newKVSSession(t, 3, 2)
	c := client(t, s, 1)
	c.Put("d.k", 1)
	if _, err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	c.Delete("d.k")
	if _, err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := c.Get("d.k", nil); !ErrNotFound(err) {
		t.Fatalf("after delete, err = %v", err)
	}
}

func TestGetDirAndRef(t *testing.T) {
	s := newKVSSession(t, 3, 2)
	c := client(t, s, 2)
	c.Put("dir.a", 1)
	c.Put("dir.b", 2)
	if _, err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	names, err := c.GetDir("dir")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("dir = %v", names)
	}
	ref1, err := c.GetRef("dir")
	if err != nil {
		t.Fatal(err)
	}
	// Changing something *under* the directory changes its reference.
	c.Put("dir.a", 999)
	if _, err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	ref2, _ := c.GetRef("dir")
	if ref1 == ref2 {
		t.Fatal("directory ref unchanged after nested update")
	}
	// Get of a directory key errors; GetDir of a value errors.
	if err := c.Get("dir", nil); err == nil {
		t.Fatal("Get(dir) succeeded")
	}
	if _, err := c.GetDir("dir.a"); err == nil {
		t.Fatal("GetDir(value) succeeded")
	}
}

func TestNotADirectoryError(t *testing.T) {
	s := newKVSSession(t, 1, 2)
	c := client(t, s, 0)
	c.Put("v", 1)
	c.Commit()
	err := c.Get("v.below", nil)
	if err == nil || !ErrNotDir(err) {
		t.Fatalf("err = %v, want not-a-directory", err)
	}
}

func TestFenceCollective(t *testing.T) {
	const size, procs = 7, 14 // two participants per rank
	s := newKVSSession(t, size, 2)
	var wg sync.WaitGroup
	versions := make([]uint64, procs)
	errs := make([]error, procs)
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			c := client(t, s, p%size)
			if err := c.Put(fmt.Sprintf("fence.k%d", p), p); err != nil {
				errs[p] = err
				return
			}
			versions[p], errs[p] = c.Fence("testfence", procs)
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("participant %d: %v", p, err)
		}
	}
	// All participants observe the same resulting version: one root
	// transition for the whole collective.
	for p := 1; p < procs; p++ {
		if versions[p] != versions[0] {
			t.Fatalf("participant %d version %d != %d", p, versions[p], versions[0])
		}
	}
	// Every key is visible everywhere afterwards.
	c := client(t, s, size-1)
	for p := 0; p < procs; p++ {
		var got int
		if err := c.Get(fmt.Sprintf("fence.k%d", p), &got); err != nil {
			t.Fatalf("get k%d: %v", p, err)
		}
		if got != p {
			t.Fatalf("k%d = %d", p, got)
		}
	}
}

func TestFenceSingleParticipantEqualsCommit(t *testing.T) {
	s := newKVSSession(t, 3, 2)
	c := client(t, s, 2)
	c.Put("f1.k", "v")
	ver, err := c.Fence("lonely", 1)
	if err != nil {
		t.Fatal(err)
	}
	if ver == 0 {
		t.Fatal("fence returned version 0")
	}
	var got string
	if err := c.Get("f1.k", &got); err != nil || got != "v" {
		t.Fatalf("get: %q %v", got, err)
	}
}

func TestFenceNprocsValidation(t *testing.T) {
	s := newKVSSession(t, 1, 2)
	c := client(t, s, 0)
	if _, err := c.Fence("bad", 0); err == nil {
		t.Fatal("nprocs 0 accepted")
	}
}

func TestCommitEmptyReturnsCurrentVersion(t *testing.T) {
	s := newKVSSession(t, 1, 2)
	c := client(t, s, 0)
	v0, err := c.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if v0 != 0 {
		t.Fatalf("empty commit version = %d, want 0", v0)
	}
	c.Put("k", 1)
	c.Commit()
	v1, _ := c.Commit()
	if v1 != 1 {
		t.Fatalf("version = %d, want 1", v1)
	}
}

func TestConcurrentCommitsDistinctKeys(t *testing.T) {
	const size, writers = 7, 7
	s := newKVSSession(t, size, 2)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := client(t, s, w%size)
			for i := 0; i < 5; i++ {
				c.Put(fmt.Sprintf("cc.w%d.i%d", w, i), i)
				if _, err := c.Commit(); err != nil {
					t.Errorf("writer %d commit %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	c := client(t, s, 0)
	for w := 0; w < writers; w++ {
		for i := 0; i < 5; i++ {
			var got int
			if err := c.Get(fmt.Sprintf("cc.w%d.i%d", w, i), &got); err != nil {
				t.Fatalf("get w%d i%d: %v", w, i, err)
			}
		}
	}
}

// TestTwoClientsOneHandle commits through two clients sharing one
// handle: each commit must be applied, not answered from the fence
// reply cache under the other client's name.
func TestTwoClientsOneHandle(t *testing.T) {
	s := newKVSSession(t, 4, 2)
	h := s.Handle(2)
	t.Cleanup(h.Close)
	c1, c2 := NewClient(h), NewClient(h)
	if err := c1.Put("two.c1", 1); err != nil {
		t.Fatal(err)
	}
	v1, err := c1.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Put("two.c2", 2); err != nil {
		t.Fatal(err)
	}
	v2, err := c2.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if v2 <= v1 {
		t.Fatalf("second client's commit got version %d after the first's %d", v2, v1)
	}
	for key, want := range map[string]int{"two.c1": 1, "two.c2": 2} {
		var got int
		if err := c1.Get(key, &got); err != nil || got != want {
			t.Fatalf("%s = %d, %v; want %d", key, got, err, want)
		}
	}
}

func TestWatchValue(t *testing.T) {
	s := newKVSSession(t, 3, 2)
	wc := client(t, s, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch, err := wc.Watch(ctx, "watched.key")
	if err != nil {
		t.Fatal(err)
	}
	// Initial state: missing.
	select {
	case u := <-ch:
		if u.Exists {
			t.Fatalf("initial state exists: %+v", u)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no initial watch state")
	}
	w := client(t, s, 0)
	w.Put("watched.key", "v1")
	if _, err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case u := <-ch:
		if !u.Exists || string(u.Val) != `"v1"` {
			t.Fatalf("watch update %+v", u)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watch update not delivered")
	}
	// Unrelated commits do not trigger the watch.
	w.Put("unrelated.key", 1)
	w.Commit()
	w.Put("watched.key", "v2")
	w.Commit()
	select {
	case u := <-ch:
		if string(u.Val) != `"v2"` {
			t.Fatalf("expected v2 update, got %+v", u)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("v2 watch update not delivered")
	}
}

func TestWatchDirectoryDeepChange(t *testing.T) {
	// "a watched directory changes if keys under it at any path depth
	// change" — the hash-tree property.
	s := newKVSSession(t, 3, 2)
	w := client(t, s, 0)
	w.Put("top.mid.leaf", 1)
	if _, err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	wc := client(t, s, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch, err := wc.Watch(ctx, "top")
	if err != nil {
		t.Fatal(err)
	}
	first := <-ch
	if !first.Exists || first.Dir == nil {
		t.Fatalf("initial state %+v", first)
	}
	w.Put("top.mid.leaf", 2) // change two levels below the watched dir
	if _, err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case u := <-ch:
		if u.Ref == first.Ref {
			t.Fatal("directory ref unchanged after deep modification")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("deep change did not trigger directory watch")
	}
}

func TestLateReaderFetchesRootLazily(t *testing.T) {
	// A slave that never saw a setroot event (e.g. all commits happened
	// before it was asked anything) must learn the root from upstream.
	s := newKVSSession(t, 7, 2)
	w := client(t, s, 0)
	w.Put("lazy.k", 7)
	if _, err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	// Give event propagation a moment, then read from a leaf; even if the
	// event already arrived this exercises the get path end to end.
	r := client(t, s, 6)
	var got int
	if err := r.Get("lazy.k", &got); err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("lazy.k = %d", got)
	}
}

func TestVersionsMonotone(t *testing.T) {
	s := newKVSSession(t, 3, 2)
	c := client(t, s, 1)
	var last uint64
	for i := 0; i < 10; i++ {
		c.Put("vm.k", i)
		v, err := c.Commit()
		if err != nil {
			t.Fatal(err)
		}
		if v <= last {
			t.Fatalf("version %d not > %d", v, last)
		}
		last = v
	}
	got, err := c.GetVersion()
	if err != nil {
		t.Fatal(err)
	}
	if got != last {
		t.Fatalf("GetVersion = %d, want %d", got, last)
	}
}

func TestLargeValuesRoundTrip(t *testing.T) {
	s := newKVSSession(t, 3, 2)
	c := client(t, s, 2)
	big := make([]byte, 64<<10)
	for i := range big {
		big[i] = byte(i % 251)
	}
	if err := c.Put("big.blob", big); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	r := client(t, s, 1)
	var got []byte
	if err := r.Get("big.blob", &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(big) || got[100] != big[100] {
		t.Fatal("large value corrupted")
	}
}

func TestFenceRedundantValuesDedup(t *testing.T) {
	// Redundant values must be deduplicated in fence aggregation: after
	// the fence, all keys share one value object (same ref).
	const size, procs = 7, 7
	s := newKVSSession(t, size, 2)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			c := client(t, s, p)
			c.Put(fmt.Sprintf("red.k%d", p), "same-value-for-everyone")
			if _, err := c.Fence("redfence", procs); err != nil {
				t.Errorf("p%d: %v", p, err)
			}
		}(p)
	}
	wg.Wait()
	c := client(t, s, 0)
	ref0, err := c.GetRef("red.k0")
	if err != nil {
		t.Fatal(err)
	}
	for p := 1; p < procs; p++ {
		ref, err := c.GetRef(fmt.Sprintf("red.k%d", p))
		if err != nil {
			t.Fatal(err)
		}
		if ref != ref0 {
			t.Fatalf("redundant values have different refs: %s vs %s", ref, ref0)
		}
	}
}

func TestSlaveCacheServesRepeatReads(t *testing.T) {
	s := newKVSSession(t, 7, 2)
	w := client(t, s, 0)
	w.Put("cache.k", "x")
	if _, err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	r := client(t, s, 6)
	var got string
	if err := r.Get("cache.k", &got); err != nil {
		t.Fatal(err)
	}
	// Second read is served from the slave cache: no new loads upstream.
	statsBefore := moduleLoads(t, r)
	if err := r.Get("cache.k", &got); err != nil {
		t.Fatal(err)
	}
	statsAfter := moduleLoads(t, r)
	if statsAfter != statsBefore {
		t.Fatalf("repeat read faulted upstream: loads %d -> %d", statsBefore, statsAfter)
	}
}

// moduleLoads fetches the local kvs module's cumulative fault-in count.
func moduleLoads(t *testing.T, c *Client) uint64 {
	t.Helper()
	resp, err := c.Handle().RPC("kvs.stats", 0xFFFFFFFF, nil)
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Loads uint64 `json:"loads"`
	}
	if err := resp.UnpackJSON(&body); err != nil {
		t.Fatal(err)
	}
	return body.Loads
}

func TestManyKeysSingleCommit(t *testing.T) {
	s := newKVSSession(t, 3, 2)
	c := client(t, s, 1)
	const n = 200
	for i := 0; i < n; i++ {
		c.Put(fmt.Sprintf("many.k%03d", i), i)
	}
	if _, err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	names, err := c.GetDir("many")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != n {
		t.Fatalf("dir has %d entries, want %d", len(names), n)
	}
}

func TestPutInvalidKey(t *testing.T) {
	s := newKVSSession(t, 1, 2)
	c := client(t, s, 0)
	if err := c.Put("", 1); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := c.Put("a..b", 1); err == nil {
		t.Fatal("key with empty component accepted")
	}
	if err := c.Delete("a..b"); err == nil {
		t.Fatal("delete with bad key accepted")
	}
	if err := c.Get("a..b", nil); err == nil {
		t.Fatal("get with bad key accepted")
	}
}

// syncStats reads one rank's parked kvs.sync count and the age of the
// oldest.
func syncStats(t *testing.T, s *session.Session, rank int) (waiters int, oldestMs float64) {
	t.Helper()
	h := s.Handle(rank)
	defer h.Close()
	resp, err := h.RPC("kvs.stats", uint32(rank), nil)
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Waiters  *int     `json:"sync_waiters"`
		OldestMs *float64 `json:"sync_oldest_ms"`
	}
	if err := resp.UnpackJSON(&body); err != nil {
		t.Fatal(err)
	}
	if body.Waiters == nil || body.OldestMs == nil {
		t.Fatalf("kvs.stats at rank %d carries no sync_waiters/sync_oldest_ms", rank)
	}
	return *body.Waiters, *body.OldestMs
}

// TestSyncWaitersReported: kvs.stats shows a kvs.sync parked for a
// version not yet published, with its age, and shows none once the
// version arrives.
func TestSyncWaitersReported(t *testing.T) {
	s := newKVSSession(t, 3, 2)
	w := client(t, s, 0)
	if err := w.Put("sw.a", 1); err != nil {
		t.Fatal(err)
	}
	ver, err := w.Commit()
	if err != nil {
		t.Fatal(err)
	}
	r := client(t, s, 2)
	if err := r.WaitVersion(ver); err != nil {
		t.Fatal(err)
	}
	if n, age := syncStats(t, s, 2); n != 0 || age != 0 {
		t.Fatalf("idle rank: sync_waiters %d, sync_oldest_ms %v; want 0, 0", n, age)
	}

	done := make(chan error, 1)
	go func() { done <- r.WaitVersion(ver + 1) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n, age := syncStats(t, s, 2)
		if n == 1 && age > 0 {
			break
		}
		if n > 1 || time.Now().After(deadline) {
			t.Fatalf("parked wait for v%d: sync_waiters %d, sync_oldest_ms %v; want 1 and a positive age", ver+1, n, age)
		}
		time.Sleep(time.Millisecond)
	}

	if err := w.Put("sw.a", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n, age := syncStats(t, s, 2); n != 0 || age != 0 {
		t.Fatalf("after v%d arrived: sync_waiters %d, sync_oldest_ms %v; want 0, 0", ver+1, n, age)
	}
}
