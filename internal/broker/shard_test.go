package broker

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"fluxgo/internal/transport"
	"fluxgo/internal/wire"
)

// recModule records the per-flow arrival order of "rec.mark" requests so
// tests can check the dispatch pipeline's per-flow FIFO contract.
type recModule struct {
	mu    sync.Mutex
	flows map[int][]int
	total int
}

type markBody struct {
	Flow int `json:"flow"`
	N    int `json:"n"`
}

func (r *recModule) Name() string            { return "rec" }
func (r *recModule) Subscriptions() []string { return nil }
func (r *recModule) Init(h *Handle) error    { return nil }
func (r *recModule) Shutdown()               {}

func (r *recModule) Recv(msg *wire.Message) {
	var body markBody
	if err := msg.UnpackJSON(&body); err != nil {
		return
	}
	r.mu.Lock()
	r.flows[body.Flow] = append(r.flows[body.Flow], body.N)
	r.total++
	r.mu.Unlock()
}

func (r *recModule) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// TestShardedDispatchPerFlowFIFO drives many concurrent flows (one per
// handle, fire-and-forget so every message of a flow shares one flow
// key) through a sharded broker and checks each flow's messages reach
// the module in send order. Cross-flow interleaving is free to vary;
// within a flow, reordering is a dispatch bug.
func TestShardedDispatchPerFlowFIFO(t *testing.T) {
	b, err := New(Config{Rank: 0, Size: 1, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recModule{flows: map[int][]int{}}
	if err := b.LoadModule(rec); err != nil {
		t.Fatal(err)
	}
	b.Start()
	defer b.Shutdown()

	const flows, msgs = 16, 200
	var wg sync.WaitGroup
	for g := 0; g < flows; g++ {
		wg.Add(1)
		go func(flow int) {
			defer wg.Done()
			h := b.NewHandle()
			defer h.Close()
			for i := 0; i < msgs; i++ {
				if err := h.Send("rec.mark", wire.NodeidAny, markBody{Flow: flow, N: i}); err != nil {
					t.Errorf("flow %d: send %d: %v", flow, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for rec.count() < flows*msgs {
		if time.Now().After(deadline) {
			t.Fatalf("received %d of %d messages", rec.count(), flows*msgs)
		}
		time.Sleep(time.Millisecond)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for flow, ns := range rec.flows {
		for i, n := range ns {
			if n != i {
				t.Fatalf("flow %d: position %d holds message %d (reordered)", flow, i, n)
			}
		}
	}
}

// causalModule checks the event->request causality contract from the
// module side: it records the highest event sequence it has applied,
// and every "causal.check" request carries the sequence of an event its
// sender had already seen, so it must not reach Recv before that event.
type causalModule struct {
	mu       sync.Mutex
	applied  uint64
	checks   int
	late     int
	firstBad string
}

type checkBody struct {
	Seen uint64 `json:"seen"`
}

func (c *causalModule) Name() string            { return "causal" }
func (c *causalModule) Subscriptions() []string { return []string{"causal.tick"} }
func (c *causalModule) Init(h *Handle) error    { return nil }
func (c *causalModule) Shutdown()               {}

func (c *causalModule) Recv(msg *wire.Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if msg.Type == wire.Event {
		if msg.Seq > c.applied {
			c.applied = msg.Seq
		}
		return
	}
	var body checkBody
	if err := msg.UnpackJSON(&body); err != nil {
		return
	}
	c.checks++
	if c.applied < body.Seen {
		c.late++
		if c.firstBad == "" {
			c.firstBad = fmt.Sprintf("request after event %d arrived with only event %d applied", body.Seen, c.applied)
		}
	}
}

func (c *causalModule) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.checks
}

// TestEventRequestCausality is the event->request causality contract
// (DESIGN.md §14): a request sent by a handle after it has seen event N
// reaches a subscribed module's Recv only after the module has applied
// N. Many handles each observe every event of a concurrent publish storm
// and answer each one with a request on their own flow, so requests
// spread over every dispatch shard while events keep queueing behind
// each other at the module.
func TestEventRequestCausality(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			testEventRequestCausality(t, shards)
		})
	}
}

func testEventRequestCausality(t *testing.T, shards int) {
	const observers, publishers, perPub = 16, 4, 100
	const events = publishers * perPub

	b, err := New(Config{Rank: 0, Size: 1, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	mod := &causalModule{}
	if err := b.LoadModule(mod); err != nil {
		t.Fatal(err)
	}
	b.Start()
	defer b.Shutdown()

	var obsWG sync.WaitGroup
	for o := 0; o < observers; o++ {
		h := b.NewHandle()
		defer h.Close()
		sub, err := h.Subscribe("causal.tick")
		if err != nil {
			t.Fatal(err)
		}
		obsWG.Add(1)
		go func() {
			defer obsWG.Done()
			for seen := 0; seen < events; seen++ {
				select {
				case ev := <-sub.Chan():
					if err := h.Send("causal.check", wire.NodeidAny, checkBody{Seen: ev.Seq}); err != nil {
						t.Errorf("send: %v", err)
						return
					}
				case <-time.After(10 * time.Second):
					t.Errorf("observer saw %d of %d events", seen, events)
					return
				}
			}
		}()
	}

	var pubWG sync.WaitGroup
	for p := 0; p < publishers; p++ {
		pubWG.Add(1)
		go func() {
			defer pubWG.Done()
			h := b.NewHandle()
			defer h.Close()
			for i := 0; i < perPub; i++ {
				if _, err := h.PublishEvent("causal.tick", nil); err != nil {
					t.Errorf("publish: %v", err)
					return
				}
			}
		}()
	}
	pubWG.Wait()
	obsWG.Wait()
	if t.Failed() {
		return
	}

	deadline := time.Now().Add(10 * time.Second)
	for mod.count() < observers*events {
		if time.Now().After(deadline) {
			t.Fatalf("module received %d of %d requests", mod.count(), observers*events)
		}
		time.Sleep(time.Millisecond)
	}
	mod.mu.Lock()
	defer mod.mu.Unlock()
	if mod.late > 0 {
		t.Fatalf("%d of %d requests overtook an event their sender had seen; first: %s",
			mod.late, mod.checks, mod.firstBad)
	}
}

// TestEventTotalOrderConcurrentPublish publishes events from many
// concurrent handles while sharded dispatch is active and checks that
// every observer — a local subscriber and frame-capable children over
// codec pipes — sees one total order with no gaps: sequence numbers
// strictly ascending from 1.
func TestEventTotalOrderConcurrentPublish(t *testing.T) {
	const children, publishers, perPub = 3, 8, 100
	const total = publishers * perPub

	b, err := New(Config{Rank: 0, Size: 1, Shards: 8, EventHistory: 8})
	if err != nil {
		t.Fatal(err)
	}
	b.Start()
	defer b.Shutdown()

	type childResult struct {
		seqs []uint64
		err  error
	}
	results := make([]childResult, children)
	var childWG sync.WaitGroup
	warmed := make(chan struct{}, children)
	for c := 0; c < children; c++ {
		parentEnd, childEnd := transport.CodecPipe("rank:0", fmt.Sprintf("rank:%d", c+1))
		b.AttachConn(LinkChildEvent, parentEnd)
		if err := childEnd.Send(&wire.Message{Type: wire.Control, Topic: wire.TopicResync, Seq: 0}); err != nil {
			t.Fatal(err)
		}
		childWG.Add(1)
		go func(c int, conn transport.Conn) {
			defer childWG.Done()
			for len(results[c].seqs) < total {
				m, err := conn.Recv()
				if err != nil {
					results[c].err = err
					return
				}
				if m.Type != wire.Event {
					continue
				}
				if m.Topic == "warm.up" {
					warmed <- struct{}{}
					continue
				}
				results[c].seqs = append(results[c].seqs, m.Seq)
			}
		}(c, childEnd)
		defer childEnd.Close()
	}

	sub := b.NewHandle()
	defer sub.Close()
	events, err := sub.Subscribe("storm")
	if err != nil {
		t.Fatal(err)
	}

	// The initial resync is asynchronous: publish a warmup event (which a
	// still-gated child picks up from the replay) and wait for every
	// child to see it, so the storm below fans out to ungated links only.
	warm := b.NewHandle()
	if _, err := warm.PublishEvent("warm.up", nil); err != nil {
		t.Fatal(err)
	}
	warm.Close()
	for c := 0; c < children; c++ {
		select {
		case <-warmed:
		case <-time.After(10 * time.Second):
			t.Fatal("children never saw the warmup event")
		}
	}

	var pubWG sync.WaitGroup
	for p := 0; p < publishers; p++ {
		pubWG.Add(1)
		go func(p int) {
			defer pubWG.Done()
			h := b.NewHandle()
			defer h.Close()
			for i := 0; i < perPub; i++ {
				if _, err := h.PublishEvent("storm.tick", map[string]int{"p": p, "i": i}); err != nil {
					t.Errorf("publisher %d: %v", p, err)
					return
				}
			}
		}(p)
	}
	pubWG.Wait()

	var subSeqs []uint64
	timeout := time.After(10 * time.Second)
	for len(subSeqs) < total {
		select {
		case m := <-events.Chan():
			subSeqs = append(subSeqs, m.Seq)
		case <-timeout:
			t.Fatalf("subscriber saw %d of %d events", len(subSeqs), total)
		}
	}
	checkAscending := func(who string, seqs []uint64) {
		t.Helper()
		if len(seqs) != total {
			t.Fatalf("%s: saw %d of %d events", who, len(seqs), total)
		}
		// Seq 1 was the warmup; the storm occupies 2..total+1, and every
		// observer must see it gap-free in that exact order.
		for i, s := range seqs {
			if s != uint64(i+2) {
				t.Fatalf("%s: position %d holds seq %d (total order broken)", who, i, s)
			}
		}
	}
	checkAscending("subscriber", subSeqs)
	childWG.Wait()
	for c := range results {
		if results[c].err != nil {
			t.Fatalf("child %d: %v", c, results[c].err)
		}
		checkAscending(fmt.Sprintf("child %d", c), results[c].seqs)
	}

	// Encode-once accounting: every storm event built exactly one frame
	// for the three frame-capable children, so fan-out reused each
	// encoding twice (the warmup's accounting depends on resync timing).
	reg := b.Metrics()
	if got := reg.Counter(wire.MetricEventsFanoutEncodes).Load(); got < total {
		t.Fatalf("events_fanout_encodes = %d, want >= %d", got, total)
	}
	if got := reg.Counter(wire.MetricEventsFanoutReuse).Load(); got < uint64(total*(children-1)) {
		t.Fatalf("events_fanout_reuse = %d, want >= %d", got, total*(children-1))
	}
}

// TestFanoutFrameReplaySoak is a race soak of the refcounted fan-out
// buffer: concurrent publishers share encoded frames across child links
// while the children keep re-requesting resyncs, so live fan-out sends
// and replayEvents' cached-frame reuse overlap constantly. Run under
// -race; an extra Release anywhere frees a frame still being written and
// the frame's buffer check or the race detector trips.
func TestFanoutFrameReplaySoak(t *testing.T) {
	const children, publishers, perPub = 4, 4, 250
	const total = publishers * perPub

	b, err := New(Config{Rank: 0, Size: 1, Shards: 4, EventHistory: total + 1})
	if err != nil {
		t.Fatal(err)
	}
	b.Start()

	var childWG sync.WaitGroup
	for c := 0; c < children; c++ {
		parentEnd, childEnd := transport.CodecPipe("rank:0", fmt.Sprintf("rank:%d", c+1))
		b.AttachConn(LinkChildEvent, parentEnd)
		if err := childEnd.Send(&wire.Message{Type: wire.Control, Topic: wire.TopicResync, Seq: 0}); err != nil {
			t.Fatal(err)
		}
		childWG.Add(1)
		go func(conn transport.Conn) {
			defer childWG.Done()
			defer conn.Close()
			seen := map[uint64]bool{}
			nextResync := 64
			for len(seen) < total {
				m, err := conn.Recv()
				if err != nil {
					t.Errorf("child recv: %v", err)
					return
				}
				if m.Type != wire.Event {
					continue
				}
				if seen[m.Seq] {
					continue // replay duplicate
				}
				seen[m.Seq] = true
				// At fixed progress milestones, re-request a replay from a
				// few events back: duplicates are expected downstream; the
				// point is that the replay path retains and releases cached
				// frames concurrently with live fan-out. Milestones are
				// counted over distinct events so replayed duplicates cannot
				// trigger further replays and storm the broker.
				if len(seen) >= nextResync && len(seen) < total {
					nextResync += 64
					back := uint64(0)
					if m.Seq > 16 {
						back = m.Seq - 16
					}
					if err := conn.Send(&wire.Message{Type: wire.Control, Topic: wire.TopicResync, Seq: back}); err != nil {
						return
					}
				}
			}
		}(childEnd)
	}

	var pubWG sync.WaitGroup
	for p := 0; p < publishers; p++ {
		pubWG.Add(1)
		go func(p int) {
			defer pubWG.Done()
			h := b.NewHandle()
			defer h.Close()
			for i := 0; i < perPub; i++ {
				if _, err := h.PublishEvent("soak.ev", json.RawMessage(`{"x":1}`)); err != nil {
					t.Errorf("publisher %d: %v", p, err)
					return
				}
			}
		}(p)
	}
	pubWG.Wait()
	childWG.Wait()
	// Shutdown releases the history's cached frames — the last owner of
	// every refcount. Over-released frames would already have tripped.
	b.Shutdown()
}
