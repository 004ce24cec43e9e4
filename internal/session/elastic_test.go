package session

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"fluxgo/internal/kvs"
	"fluxgo/internal/modules/hb"
	"fluxgo/internal/modules/live"
	"fluxgo/internal/transport"
	"fluxgo/internal/wire"
)

// pingRank asserts rank answers a rank-addressed ping through h.
func pingRank(t *testing.T, h interface {
	RPC(topic string, nodeid uint32, body any) (*wire.Message, error)
}, rank int) {
	t.Helper()
	resp, err := h.RPC(wire.TopicPing, uint32(rank), map[string]any{})
	if err != nil {
		t.Fatalf("ping rank %d: %v", rank, err)
	}
	var body struct {
		Rank int `json:"rank"`
	}
	if err := resp.UnpackJSON(&body); err != nil || body.Rank != rank {
		t.Fatalf("ping rank %d answered by %d (%v)", rank, body.Rank, err)
	}
}

// TestElasticGrowShrink exercises the basic protocol: grow a session by
// two ranks, reach the newcomers over the ring, drain a founding rank,
// and watch every surviving broker converge on the final epoch.
func TestElasticGrowShrink(t *testing.T) {
	s, err := New(Options{Size: 3, Arity: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	first, err := s.Grow(2)
	if err != nil {
		t.Fatalf("grow: %v", err)
	}
	if first != 3 {
		t.Fatalf("first new rank = %d, want 3", first)
	}
	h := s.Handle(0)
	defer h.Close()
	pingRank(t, h, 3)
	pingRank(t, h, 4)

	if err := s.Shrink([]int{1}); err != nil {
		t.Fatalf("shrink: %v", err)
	}
	if _, err := h.RPC(wire.TopicPing, 1, map[string]any{}); !wire.IsErrnum(err, wire.ErrnoHostUnreach) {
		t.Fatalf("ping departed rank 1: err %v, want EHOSTUNREACH", err)
	}
	// Double-drain and draining the root are refused.
	if err := s.Shrink([]int{1}); err == nil {
		t.Fatal("second drain of rank 1 accepted")
	}
	if err := s.Shrink([]int{0}); err == nil {
		t.Fatal("drain of the root accepted")
	}

	// Every surviving broker converges on the final epoch (2 joins + 1
	// leave on top of the founding epoch 1 = 4) and the same live set.
	want := s.Epoch()
	wantLive := s.LiveRanks()
	deadline := time.After(10 * time.Second)
	for _, r := range wantLive {
		for {
			b := s.Broker(r)
			if b.Epoch() == want && equalInts(b.LiveRanks(), wantLive) {
				break
			}
			select {
			case <-deadline:
				t.Fatalf("rank %d stuck at epoch %d live %v, want epoch %d live %v",
					r, b.Epoch(), b.LiveRanks(), want, wantLive)
			default:
				time.Sleep(time.Millisecond)
			}
		}
	}
	if want != 4 {
		t.Fatalf("session epoch %d, want 4", want)
	}
	for _, r := range wantLive {
		pingRank(t, h, r)
	}
}

// TestGrownRankAddressableFromEveryRank pings a freshly grown rank from
// every live rank at once, while the join event is still held back from
// one subtree (the root's link to rank 2 delays every delivery). Ranks
// 2, 5 and 6 have not yet folded the join, so the new rank lies beyond
// their rank space: they must send the ping on along the ring rather
// than answer EINVAL. Only the root, which sequenced the join, rejects
// a rank beyond its space.
func TestGrownRankAddressableFromEveryRank(t *testing.T) {
	s, err := New(Options{Size: 7, Arity: 2, FaultInjection: true, FaultSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Chaos().SetLinkFaults(0, 2, transport.Faults{Delay: 500 * time.Millisecond})

	grown, err := s.Grow(1)
	if err != nil {
		t.Fatalf("grow: %v", err)
	}
	if space := s.Broker(5).RankSpace(); space > grown {
		t.Fatalf("rank 5 already sees rank space %d: the join event was not held back", space)
	}
	var wg sync.WaitGroup
	for r := 0; r < grown; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			h := s.Handle(r)
			defer h.Close()
			resp, err := h.RPC(wire.TopicPing, uint32(grown), map[string]any{})
			if err != nil {
				t.Errorf("ping rank %d from rank %d: %v", grown, r, err)
				return
			}
			var body struct {
				Rank int `json:"rank"`
			}
			if err := resp.UnpackJSON(&body); err != nil || body.Rank != grown {
				t.Errorf("ping rank %d from rank %d answered by %d (%v)", grown, r, body.Rank, err)
			}
		}(r)
	}
	wg.Wait()

	// A rank beyond every broker's space still fails: the ring carries
	// the ping round to the root, which answers EINVAL.
	h := s.Handle(5)
	defer h.Close()
	if _, err := h.RPC(wire.TopicPing, uint32(grown+50), map[string]any{}); !wire.IsErrnum(err, wire.ErrnoInval) {
		t.Fatalf("ping of bogus rank %d: err %v, want EINVAL", grown+50, err)
	}
}

// TestElasticChaosSoak is the headline elasticity proof: a seeded chaos
// schedule drops, delays, and partitions traffic and silently crashes
// interior ranks WHILE the membership churns — ranks join and drain
// concurrently with the faults. It asserts the same three guarantees as
// TestChaosSoak (no hang, causal KVS safety, post-heal convergence),
// plus membership convergence: every surviving member ends on the same
// epoch and the same live set.
//
// Reproducible via FLUX_CHAOS_SEEDS / CHAOS_SOAK like TestChaosSoak.
func TestElasticChaosSoak(t *testing.T) {
	dur := chaosDuration()
	if testing.Short() {
		dur = 500 * time.Millisecond
	}
	for _, seed := range chaosSeeds() {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runElasticChaosSoak(t, seed, dur)
		})
	}
}

func runElasticChaosSoak(t *testing.T, seed int64, dur time.Duration) {
	t.Logf("elastic chaos soak: seed=%d duration=%s (replay with FLUX_CHAOS_SEEDS=%d)", seed, dur, seed)

	const size = 15
	s, err := New(Options{
		Size:           size,
		Arity:          2,
		FaultInjection: true,
		FaultSeed:      seed,
		RPCTimeout:     1500 * time.Millisecond,
		SyncInterval:   500 * time.Millisecond,
		Modules: []ModuleFactory{
			hb.Factory(hb.Config{Interval: 100 * time.Millisecond}),
			live.Factory(live.Config{}),
			kvs.Factory(kvs.ModuleConfig{}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ch := s.Chaos()

	rng := rand.New(rand.NewSource(seed))
	memberRng := rand.New(rand.NewSource(seed ^ 0x5f3759df))
	stop := make(chan struct{})
	var wg sync.WaitGroup

	type commitRec struct {
		key     string
		val     int
		version uint64
	}
	recs := make(chan commitRec, 1024)

	// Writers at leaf ranks: unique keys, so any successful read has
	// exactly one correct answer.
	for _, w := range []int{7, 9, 11} {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := s.Handle(w)
			defer h.Close()
			c := kvs.NewClient(h)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("elastic.w%d.i%d", w, i)
				if err := c.Put(key, i); err != nil {
					continue // chaos error: liveness is the only obligation
				}
				v, err := c.Commit()
				if err != nil {
					continue
				}
				select {
				case recs <- commitRec{key, i, v}:
				default:
				}
			}
		}(w)
	}

	// Readers at other leaves: causal-consistency checkers.
	for _, r := range []int{8, 10, 12} {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			h := s.Handle(r)
			defer h.Close()
			c := kvs.NewClient(h)
			for {
				select {
				case <-stop:
					return
				case rec := <-recs:
					if err := c.WaitVersion(rec.version); err != nil {
						continue
					}
					var got int
					if err := c.Get(rec.key, &got); err != nil {
						continue
					}
					if got != rec.val {
						t.Errorf("causal violation at rank %d: %s = %d after WaitVersion(%d), committed %d (seed %d)",
							r, rec.key, got, rec.version, rec.val, seed)
					}
				}
			}
		}(r)
	}

	// Ring pinger against the *current* membership: targets include
	// ranks that joined moments ago and ranks about to drain. Errors
	// (EHOSTUNREACH, ESTALE, timeouts) are fine; hangs are not.
	wg.Add(1)
	go func() {
		defer wg.Done()
		h := s.Handle(0)
		defer h.Close()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			ranks := s.LiveRanks()
			h.RPC(wire.TopicPing, uint32(ranks[i%len(ranks)]), nil)
		}
	}()

	// Membership churn driver: grow and drain ranks while the chaos
	// schedule runs. Only elastic ranks (>= founding size) are drained;
	// the founding interior belongs to the crash schedule. Errors are
	// tolerated — a grow can time out against a partitioned parent — but
	// the call must return.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(75 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
			}
			var elastic []int
			for _, r := range s.LiveRanks() {
				if r >= size {
					elastic = append(elastic, r)
				}
			}
			if len(elastic) < 4 && memberRng.Intn(2) == 0 {
				s.Grow(1)
			} else if len(elastic) > 0 {
				s.Shrink([]int{elastic[memberRng.Intn(len(elastic))]})
			}
		}
	}()

	// Chaos driver: seeded schedule of noise, partitions, and crashes.
	interior := []int{1, 2, 3, 4, 5, 6}
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(50 * time.Millisecond)
		defer ticker.Stop()
		crashes := 0
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
			}
			switch rng.Intn(6) {
			case 0, 1: // background noise on every live link
				ch.SetAllFaults(transport.Faults{
					Drop:   0.05,
					Dup:    0.02,
					Delay:  time.Duration(rng.Intn(3)) * time.Millisecond,
					Jitter: 2 * time.Millisecond,
				})
			case 2, 3: // heal everything
				ch.Heal()
			case 4: // partition a random subtree away, heal later by case 2/3
				ch.Partition(interior[rng.Intn(len(interior))])
			case 5: // silent crash of an interior rank, detected later
				if crashes >= 2 {
					continue
				}
				victim := interior[rng.Intn(len(interior))]
				if !s.Alive(victim) {
					continue
				}
				crashes++
				ch.Crash(victim)
				wg.Add(1)
				go func(victim int) {
					defer wg.Done()
					select {
					case <-time.After(300 * time.Millisecond):
					case <-stop:
					}
					ch.Sever(victim)
				}(victim)
			}
		}
	}()

	time.Sleep(dur)
	close(stop)
	// Generous bound: the worst case is a grow retrying its admission
	// handshake through the full backoff schedule against 1.5s deadlines.
	waitOrFatal(t, &wg, 60*time.Second, "elastic chaos workload (some RPC or membership op hung)")

	// Convergence: heal all faults, then every surviving member must have
	// a live parent and agree on the final epoch and live set.
	ch.Heal()
	wantEpoch := s.Epoch()
	wantLive := s.LiveRanks()
	deadline := time.After(30 * time.Second)
	for {
		lagging := ""
		for _, r := range wantLive {
			if !s.Alive(r) {
				continue
			}
			b := s.Broker(r)
			if r != 0 {
				if p := b.ParentRank(); p < 0 || !s.Alive(p) {
					lagging = fmt.Sprintf("rank %d parent %d not live", r, p)
					break
				}
			}
			if b.Epoch() != wantEpoch || !equalInts(b.LiveRanks(), wantLive) {
				lagging = fmt.Sprintf("rank %d at epoch %d live %v, want epoch %d live %v",
					r, b.Epoch(), b.LiveRanks(), wantEpoch, wantLive)
				break
			}
		}
		if lagging == "" {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("membership never converged after heal: %s (seed %d)", lagging, seed)
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Safety after the storm: one final commit visible to every
	// surviving member, and every member answers a ring ping.
	wh := s.Handle(7)
	defer wh.Close()
	wc := kvs.NewClient(wh)
	if err := wc.Put("elastic.final", "done"); err != nil {
		t.Fatalf("final put after heal: %v (seed %d)", err, seed)
	}
	ver, err := wc.Commit()
	if err != nil {
		t.Fatalf("final commit after heal: %v (seed %d)", err, seed)
	}
	h0 := s.Handle(0)
	defer h0.Close()
	for _, r := range wantLive {
		if !s.Alive(r) {
			continue
		}
		h := s.Handle(r)
		c := kvs.NewClient(h)
		var got string
		err := c.WaitVersion(ver)
		if err == nil {
			err = c.Get("elastic.final", &got)
		}
		h.Close()
		if err != nil || got != "done" {
			t.Fatalf("rank %d: final read %q err %v (seed %d)", r, got, err, seed)
		}
		pingRank(t, h0, r)
	}
}

// TestReparentUnderLoadWithEpochChecks extends the reparent-under-load
// coverage for the epoch-fenced overlay: while an 8-party KVS fence is
// in flight AND an event storm is running AND the session is growing,
// two interior aggregators are killed concurrently. The fence must
// complete exactly once with one version, the joined rank must be
// admitted, and every surviving member must converge on the final epoch
// with zero hangs.
func TestReparentUnderLoadWithEpochChecks(t *testing.T) {
	const size = 15
	s, err := New(Options{
		Size:       size,
		Arity:      2,
		RPCTimeout: 3 * time.Second,
		Modules: []ModuleFactory{
			hb.Factory(hb.Config{Interval: 100 * time.Millisecond}),
			live.Factory(live.Config{}),
			kvs.Factory(kvs.ModuleConfig{}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	// Event storm: a publisher hammers the event plane so reparenting
	// and membership events contend with a full pipe.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h := s.Handle(0)
		defer h.Close()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			h.PublishEvent("storm.tick", map[string]int{"i": i})
		}
	}()

	// 8-party fence across the leaves.
	leaves := []int{7, 8, 9, 10, 11, 12, 13, 14}
	type fenceResult struct {
		rank int
		ver  uint64
		err  error
	}
	results := make(chan fenceResult, len(leaves))
	for _, leaf := range leaves {
		go func(leaf int) {
			h := s.Handle(leaf)
			defer h.Close()
			c := kvs.NewClient(h)
			if err := c.Put(fmt.Sprintf("ef.r%d", leaf), leaf); err != nil {
				results <- fenceResult{leaf, 0, err}
				return
			}
			v, err := c.Fence("epochfence", len(leaves))
			results <- fenceResult{leaf, v, err}
		}(leaf)
	}

	// Let contributions flow through the doomed aggregators, then kill
	// two interior ranks while a grow races them.
	time.Sleep(20 * time.Millisecond)
	var kwg sync.WaitGroup
	for _, v := range []int{3, 4} {
		kwg.Add(1)
		go func(v int) {
			defer kwg.Done()
			s.Kill(v)
		}(v)
	}
	var grown int
	var growErr error
	kwg.Add(1)
	go func() {
		defer kwg.Done()
		grown, growErr = s.Grow(1)
	}()
	kwg.Wait()
	if growErr != nil {
		t.Fatalf("grow during kills: %v", growErr)
	}
	if grown != size {
		t.Fatalf("grew rank %d, want %d", grown, size)
	}

	// Every fence participant completes with the same version.
	var version uint64
	for range leaves {
		select {
		case res := <-results:
			if res.err != nil {
				t.Fatalf("rank %d: fence failed: %v", res.rank, res.err)
			}
			if version == 0 {
				version = res.ver
			} else if res.ver != version {
				t.Fatalf("rank %d: fence version %d, others got %d", res.rank, res.ver, version)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("fence participants hung under kills + growth + event storm")
		}
	}
	close(stop)
	waitOrFatal(t, &wg, 30*time.Second, "event storm publisher")

	// The joined rank was admitted and serves rank-addressed RPCs.
	h := s.Handle(7)
	defer h.Close()
	pingRank(t, h, grown)

	// Every surviving member converges on the join epoch (founding 1 +
	// one join = 2), killed ranks excluded.
	wantLive := s.LiveRanks()
	deadline := time.After(20 * time.Second)
	for _, r := range wantLive {
		if !s.Alive(r) {
			continue
		}
		for {
			if s.Broker(r).Epoch() == 2 {
				break
			}
			select {
			case <-deadline:
				t.Fatalf("rank %d stuck at epoch %d, want 2", r, s.Broker(r).Epoch())
			default:
				time.Sleep(time.Millisecond)
			}
		}
	}
}
