package broker

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"fluxgo/internal/obs"
	"fluxgo/internal/transport"
	"fluxgo/internal/wire"
)

// scanOracle is how applyEventLocked picked an event's recipients
// before the recipient table: a walk of every module, link and handle
// for each event. It survives as the reference the table must equal.
// Called with mu held.
func scanOracle(b *Broker, topic string) (mods, local, down []string, frameTargets int) {
	for name, r := range b.modules {
		for _, p := range r.subs {
			if matchTopic(p, topic) {
				mods = append(mods, name)
				break
			}
		}
	}
	for _, l := range b.links {
		switch l.kind {
		case linkHandle:
			if l.h.wantsEvent(topic) {
				local = append(local, l.id)
			}
		case LinkClient:
			for _, p := range l.subs {
				if matchTopic(p, topic) {
					local = append(local, l.id)
					break
				}
			}
		case LinkChildEvent:
			if !l.gated {
				down = append(down, l.id)
				if _, ok := l.conn.(transport.FrameSender); ok {
					frameTargets++
				}
			}
		}
	}
	slices.Sort(mods)
	slices.Sort(local)
	slices.Sort(down)
	return mods, local, down, frameTargets
}

// subModule is a module that only subscribes. hook, when set, runs in
// Init and Shutdown: while the module is half loaded (its handle
// registered, the module not yet) and half unloaded (the module gone,
// its handle not yet).
type subModule struct {
	name string
	subs []string
	hook func()
}

func (m *subModule) Name() string            { return m.name }
func (m *subModule) Subscriptions() []string { return m.subs }
func (m *subModule) Recv(*wire.Message)      {}

func (m *subModule) Init(*Handle) error {
	if m.hook != nil {
		m.hook()
	}
	return nil
}

func (m *subModule) Shutdown() {
	if m.hook != nil {
		m.hook()
	}
}

var (
	recipPrefixes = []string{"", "a", "a.b", "b", "a.b.c"}
	recipTopics   = []string{"a", "a.b", "a.b.c", "a.x", "b", "c"}
)

// recipWorld drives one broker through the changes that decide who
// receives an event: modules load and unload, handles subscribe, close
// subscriptions and close, clients attach, subscribe, unsubscribe and
// go down, child event links attach gated, resync and go down.
type recipWorld struct {
	b        *Broker
	mods     [4]bool
	handles  [4]*Handle
	subs     [4][]*Subscription
	clients  [3]*link
	children [3]*link
	peers    int

	// A module's load and unload also compare the table to the scan
	// midway (subModule.hook), from the module's goroutine on unload; the
	// first mismatch waits here for the test goroutine.
	hookMu  sync.Mutex
	hookErr error
	closing bool
}

func (w *recipWorld) hook() {
	w.hookMu.Lock()
	defer w.hookMu.Unlock()
	if w.closing || w.hookErr != nil {
		return
	}
	w.hookErr = w.compare()
}

// close shuts the broker down; module unloads then compare nothing.
func (w *recipWorld) close() {
	w.hookMu.Lock()
	w.closing = true
	w.hookMu.Unlock()
	w.b.Shutdown()
}

func newRecipWorld(t testing.TB) *recipWorld {
	b, err := New(Config{Rank: 0, Size: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	b.Start()
	return &recipWorld{b: b}
}

// attach registers a new transport link of kind and returns it. Child
// links alternate between frame-capable and message-only pipes.
func (w *recipWorld) attach(kind LinkKind, frames bool) *link {
	w.peers++
	id := fmt.Sprintf("peer%d", w.peers)
	near, _ := transport.Pipe("rank:0", id)
	if frames {
		near, _ = transport.CodecPipe("rank:0", id)
	}
	w.b.AttachConn(kind, near)
	w.b.mu.Lock()
	defer w.b.mu.Unlock()
	return w.b.links[kind.prefix()+id]
}

// subControl serves a client's cmb.sub or cmb.unsub of prefix.
func subControl(b *Broker, l *link, topic, prefix string) {
	m, err := wire.NewRequest(topic, 0, map[string]string{"prefix": prefix})
	if err != nil {
		panic(err)
	}
	m.Type = wire.Control
	b.handleControl(inbound{msg: m, from: l})
}

// step applies one change, chosen and parameterised by op.
func (w *recipWorld) step(t testing.TB, op byte) {
	arg := int(op / 10)
	prefix := recipPrefixes[arg%len(recipPrefixes)]
	switch op % 10 {
	case 0: // load or unload a module
		i := arg % len(w.mods)
		name := fmt.Sprintf("m%d", i)
		if w.mods[i] {
			if err := w.b.UnloadModule(name); err != nil {
				t.Fatal(err)
			}
		} else if err := w.b.LoadModule(&subModule{name: name, subs: []string{prefix}, hook: w.hook}); err != nil {
			t.Fatal(err)
		}
		w.mods[i] = !w.mods[i]
	case 1: // open or close a handle
		i := arg % len(w.handles)
		if h := w.handles[i]; h != nil {
			h.Close()
			w.handles[i], w.subs[i] = nil, nil
		} else {
			w.handles[i] = w.b.NewHandle()
		}
	case 2: // subscribe a handle
		i := arg % len(w.handles)
		if h := w.handles[i]; h != nil {
			s, err := h.Subscribe(recipPrefixes[(arg/len(w.handles))%len(recipPrefixes)])
			if err != nil {
				t.Fatal(err)
			}
			w.subs[i] = append(w.subs[i], s)
		}
	case 3: // close a handle's oldest subscription
		i := arg % len(w.handles)
		if len(w.subs[i]) > 0 {
			w.subs[i][0].Close()
			w.subs[i] = w.subs[i][1:]
		}
	case 4: // attach a client, or take one down
		i := arg % len(w.clients)
		if l := w.clients[i]; l != nil {
			w.b.linkDown(l)
			w.clients[i] = nil
		} else {
			w.clients[i] = w.attach(LinkClient, false)
		}
	case 5: // client cmb.sub
		if l := w.clients[arg%len(w.clients)]; l != nil {
			subControl(w.b, l, wire.TopicSub, prefix)
		}
	case 6: // client cmb.unsub
		if l := w.clients[arg%len(w.clients)]; l != nil {
			subControl(w.b, l, wire.TopicUnsub, prefix)
		}
	case 7: // attach a child event link (gated), or take one down
		i := arg % len(w.children)
		if l := w.children[i]; l != nil {
			w.b.linkDown(l)
			w.children[i] = nil
		} else {
			w.children[i] = w.attach(LinkChildEvent, arg%2 == 0)
		}
	case 8: // a child's cmb.resync ungates its link
		if l := w.children[arg%len(w.children)]; l != nil {
			w.b.handleControl(inbound{msg: &wire.Message{Type: wire.Control, Topic: wire.TopicResync}, from: l})
		}
	case 9: // look only
	}
}

// compare reports how the recipient table differs from a fresh scan
// for any topic, or nil. Each lookup also fills the table, so a change
// made after it without invalidating the table leaves a stale entry for
// the next compare to find.
func (w *recipWorld) compare() error {
	b := w.b
	b.evMu.Lock()
	b.mu.Lock()
	defer b.evMu.Unlock()
	defer b.mu.Unlock()
	for _, topic := range recipTopics {
		r := b.recipientsLocked(topic)
		var mods, local, down []string
		for _, m := range r.mods {
			mods = append(mods, m.mod.Name())
		}
		for _, l := range r.local {
			local = append(local, l.id)
		}
		for _, l := range r.down {
			down = append(down, l.id)
		}
		slices.Sort(mods)
		slices.Sort(local)
		slices.Sort(down)
		wm, wl, wd, wf := scanOracle(b, topic)
		span := fmt.Sprintf("down:%d local:%d", len(wd), len(wm)+len(wl))
		if !slices.Equal(mods, wm) || !slices.Equal(local, wl) || !slices.Equal(down, wd) ||
			r.frameTargets != wf || r.span != span {
			return fmt.Errorf("topic %q: table has mods %v local %v down %v frames %d span %q; scan finds %v %v %v %d %q",
				topic, mods, local, down, r.frameTargets, r.span, wm, wl, wd, wf, span)
		}
	}
	return nil
}

// check fails the test on a mismatch found now or by a module hook.
func (w *recipWorld) check(t testing.TB, step int) {
	t.Helper()
	w.hookMu.Lock()
	err := w.hookErr
	w.hookMu.Unlock()
	if err != nil {
		t.Fatalf("step %d, module load/unload midway: %v", step, err)
	}
	if err := w.compare(); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
}

// recipScript is a deterministic random change sequence for the seed
// corpus.
func recipScript(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	s := make([]byte, n)
	for i := range s {
		s[i] = byte(rng.Intn(256))
	}
	return s
}

// FuzzEventRecipients holds the recipient table to the per-event scan
// it replaced: after every change in a random sequence of module,
// handle, subscription, client and child-link changes, each topic's
// table entry names the same modules, local links and ungated children
// as a fresh scan, with the same frame count and span string.
func FuzzEventRecipients(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(recipScript(seed, 300))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 512 {
			script = script[:512]
		}
		w := newRecipWorld(t)
		defer w.close()
		w.check(t, -1)
		for i, op := range script {
			w.step(t, op)
			w.check(t, i)
		}
	})
}

// rebuilds reads the recipient-table rebuild counter.
func rebuilds(b *Broker) uint64 {
	return b.Metrics().Counter(wire.MetricEventRecipientRebuilds).Load()
}

// TestRecipientRebuilds: a steady event stream costs no table rebuilds,
// and each change to who receives events costs exactly one rebuild per
// topic on the next event.
func TestRecipientRebuilds(t *testing.T) {
	b, err := New(Config{Rank: 0, Size: 1})
	if err != nil {
		t.Fatal(err)
	}
	b.Start()
	defer b.Shutdown()
	pub := b.NewHandle()
	defer pub.Close()

	publish := func(topic string) {
		t.Helper()
		if _, err := pub.PublishEvent(topic, nil); err != nil {
			t.Fatal(err)
		}
	}
	publish("t.a")
	publish("t.b")
	before := rebuilds(b)
	for i := 0; i < 1000; i++ {
		publish([]string{"t.a", "t.b"}[i%2])
	}
	if got := rebuilds(b) - before; got != 0 {
		t.Fatalf("1000 events on fixed topics rebuilt the recipient table %d times, want 0", got)
	}

	parentEnd, childEnd := transport.Pipe("rank:0", "rank:1")
	defer childEnd.Close()
	clientEnd, _ := transport.Pipe("rank:0", "client:1")
	var child, client *link
	var h *Handle
	var s *Subscription
	find := func(id string) *link {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.links[id]
	}
	sites := []struct {
		name   string
		change func()
	}{
		{"LoadModule", func() {
			if err := b.LoadModule(&subModule{name: "m", subs: []string{"t"}}); err != nil {
				t.Fatal(err)
			}
		}},
		{"UnloadModule", func() {
			if err := b.UnloadModule("m"); err != nil {
				t.Fatal(err)
			}
		}},
		{"NewHandle", func() { h = b.NewHandle() }},
		{"Subscribe", func() {
			if s, err = h.Subscribe("t.a"); err != nil {
				t.Fatal(err)
			}
		}},
		{"Subscription.Close", func() { s.Close() }},
		{"Handle.Close", func() { h.Close() }},
		{"client attach", func() {
			b.AttachConn(LinkClient, clientEnd)
			client = find("c:client:1")
		}},
		{"cmb.sub", func() { subControl(b, client, wire.TopicSub, "t") }},
		{"cmb.unsub", func() { subControl(b, client, wire.TopicUnsub, "t") }},
		{"client down", func() { b.linkDown(client) }},
		{"child attach (gated)", func() {
			b.AttachConn(LinkChildEvent, parentEnd)
			child = find("e:rank:1")
		}},
		{"child resync (ungate)", func() {
			b.handleControl(inbound{msg: &wire.Message{Type: wire.Control, Topic: wire.TopicResync,
				Seq: b.LastEventSeq()}, from: child})
		}},
		{"child down", func() { b.linkDown(child) }},
	}
	for _, site := range sites {
		before := rebuilds(b)
		site.change()
		publish("t.a")
		if got := rebuilds(b) - before; got != 1 {
			t.Fatalf("%s: next event rebuilt %d table entries, want 1", site.name, got)
		}
		publish("t.a")
		if got := rebuilds(b) - before; got != 1 {
			t.Fatalf("%s: second event rebuilt again (%d rebuilds)", site.name, got)
		}
	}
	stats, err := pub.RPC("cmb.stats", wire.NodeidAny, nil)
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Metrics obs.Snapshot `json:"metrics"`
	}
	if err := stats.UnpackJSON(&body); err != nil {
		t.Fatal(err)
	}
	if got, want := body.Metrics.Counters[wire.MetricEventRecipientRebuilds], rebuilds(b); got != want || got == 0 {
		t.Fatalf("cmb.stats reports %s = %d, want %d", wire.MetricEventRecipientRebuilds, got, want)
	}
}

// TestSubscribeCloseRace: a handle subscribes and closes in a loop
// while a publisher streams events on the topic. Every event sequenced
// after Subscribe returns reaches the subscription, in order, and none
// sequenced after Close returns does. Run under -race.
func TestSubscribeCloseRace(t *testing.T) {
	b, err := New(Config{Rank: 0, Size: 1})
	if err != nil {
		t.Fatal(err)
	}
	b.Start()
	defer b.Shutdown()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		pub := b.NewHandle()
		defer pub.Close()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := pub.PublishEvent("race.tick", nil); err != nil {
				t.Errorf("publish: %v", err)
				return
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	h := b.NewHandle()
	defer h.Close()
	for iter := 0; iter < 200; iter++ {
		s, err := h.Subscribe("race")
		if err != nil {
			t.Fatal(err)
		}
		after := b.LastEventSeq()
		// Wait for three events sequenced after Subscribe returned; every
		// one from after+1 on must arrive, in order.
		next := after + 1
		deadline := time.After(10 * time.Second)
		for next <= after+3 {
			select {
			case m := <-s.Chan():
				if m.Seq < next {
					continue // sequenced before Subscribe returned: optional
				}
				if m.Seq != next {
					t.Fatalf("iteration %d: got seq %d, want %d (subscribed after seq %d)", iter, m.Seq, next, after)
				}
				next++
			case <-deadline:
				t.Fatalf("iteration %d: seq %d never arrived (subscribed after seq %d)", iter, next, after)
			}
		}
		s.Close()
		closedAt := b.LastEventSeq()
		for m := range s.Chan() {
			if m.Seq > closedAt {
				t.Fatalf("iteration %d: seq %d delivered after Close (closed at seq %d)", iter, m.Seq, closedAt)
			}
			if m.Seq != next {
				t.Fatalf("iteration %d: drained seq %d, want %d", iter, m.Seq, next)
			}
			next++
		}
	}
}
