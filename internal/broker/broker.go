// Package broker implements the Comms Message Broker (CMB), the
// per-node daemon of a Flux comms session.
//
// Exactly as in the paper's prototype, each broker participates in three
// persistent overlay planes: an event plane (publish/subscribe with
// guaranteed, totally ordered delivery — the paper's PGM bus, realized
// here as a root-sequenced tree broadcast), a request/response tree for
// scalable RPCs, barriers, and reductions (requests are routed "upstream"
// to the first comms module matching the topic, responses retrace the
// same hops in reverse), and a secondary rank-addressed overlay with ring
// topology that lets any rank be reached without routing tables.
//
// Comms modules — the paper's loadable service plugins (kvs, barrier,
// wexec, ...) — are loaded into the broker's address space and exchange
// messages with it through in-memory mailboxes. Local programs attach
// through Handles, the analogue of the flux utility's socket connection.
package broker

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fluxgo/internal/clock"
	"fluxgo/internal/debuglock"
	"fluxgo/internal/obs"
	"fluxgo/internal/topo"
	"fluxgo/internal/transport"
	"fluxgo/internal/wire"
)

// Errno values used in CMB error responses. The canonical table lives
// in the wire package (they are protocol constants); these aliases keep
// the broker API ergonomic for modules.
const (
	ErrnoNoEnt       = wire.ErrnoNoEnt
	ErrnoIO          = wire.ErrnoIO
	ErrnoInval       = wire.ErrnoInval
	ErrnoNoSys       = wire.ErrnoNoSys
	ErrnoProto       = wire.ErrnoProto
	ErrnoShutdown    = wire.ErrnoShutdown
	ErrnoTimedOut    = wire.ErrnoTimedOut
	ErrnoHostUnreach = wire.ErrnoHostUnreach
	ErrnoStale       = wire.ErrnoStale
)

// LinkKind classifies a broker attachment to one of the overlay planes.
type LinkKind int

// Link kinds.
const (
	LinkParentTree  LinkKind = iota + 1 // request plane, toward root
	LinkParentEvent                     // event plane, toward root
	LinkChildTree                       // request plane, toward leaves
	LinkChildEvent                      // event plane, toward leaves
	LinkRingOut                         // rank-addressed plane, to next rank
	LinkRingIn                          // rank-addressed plane, from prev rank
	LinkClient                          // external client connection
	linkHandle                          // in-process Handle
)

func (k LinkKind) prefix() string {
	switch k {
	case LinkParentTree, LinkChildTree:
		return "t:"
	case LinkParentEvent, LinkChildEvent:
		return "e:"
	// Ring in and out must map to distinct ids: in a two-rank session
	// both directions have the same peer, and a shared prefix would
	// collide in the link registry, orphaning one conn at shutdown.
	case LinkRingOut:
		return "ro:"
	case LinkRingIn:
		return "ri:"
	case LinkClient:
		return "c:"
	default:
		return "h:"
	}
}

// link is one attachment: either a transport connection or a local handle.
type link struct {
	kind LinkKind
	id   string // registry id, unique within this broker
	conn transport.Conn
	h    *Handle
	subs []string // event-topic prefixes, for client links
	// gated marks a child event link that has not yet resynced: no live
	// events are forwarded on it until its cmb.resync is served, so a
	// replayed backlog can never be overtaken by a fresher event (which
	// would advance the child's sequence and make it drop the backlog as
	// duplicates).
	gated bool
	// pending marks a child tree link from a joining rank that has not
	// completed the cmb.join handshake: the membership fence admits
	// nothing but the handshake itself on it.
	pending atomic.Bool
	// minEpoch, when nonzero, is the lowest membership epoch admitted on
	// this link; it is raised to the leave epoch when the peer departs,
	// fencing out its residual traffic (see Broker.admitEpoch).
	minEpoch atomic.Uint32
}

// send delivers a message outbound on this link, reporting failure so
// the broker can account for it (see Broker.send).
func (l *link) send(m *wire.Message) error {
	if l.conn != nil {
		return l.conn.Send(m)
	}
	if l.h != nil && !l.h.deliver(m) {
		return errShutdown
	}
	return nil
}

// send delivers m on l, counting failures in Stats.SendErrors instead of
// silently discarding them. Link-down cleanup still handles the
// connection teardown itself; the counter is what makes a lossy or dying
// link observable through cmb.stats before that happens.
func (b *Broker) send(l *link, m *wire.Message) {
	if err := l.send(m); err != nil {
		b.ctr.sendErrors.Inc()
		b.log.Warnf(wire.ServiceCMB, "send on link %s failed: %v", l.id, err)
	}
}

// sendHandoff is send for the single-destination routing paths: when l
// is a transport link, the message is armed so the link's writer
// recycles it (and its receive buffer) after encoding. The caller must
// not touch m afterwards. Messages fanned out to several links (events)
// or delivered to local handles are never armed: for them this
// degenerates to send, and they are garbage-collected as before.
func (b *Broker) sendHandoff(l *link, m *wire.Message) {
	b.sendHandoffErr(l, m)
}

// sendHandoffErr is sendHandoff reporting the send error instead of
// only counting it: the tracked forwarding paths need the failure to
// settle the in-flight entry they just created. The caller must not
// touch m afterwards.
func (b *Broker) sendHandoffErr(l *link, m *wire.Message) error {
	if l.conn != nil {
		m.Handoff()
	}
	err := l.send(m)
	if err != nil {
		b.ctr.sendErrors.Inc()
		b.log.Warnf(wire.ServiceCMB, "send on link %s failed: %v", l.id, err)
	}
	return err
}

// inbound is one unit of work for the broker loop.
type inbound struct {
	msg  *wire.Message
	from *link // arrival link; nil for broker-internal submissions
	// enq is when the message entered the broker inbox; the loop's
	// pickup delay against it is the queue-wait recorded in trace spans
	// and the cmb.request_queue_ns histogram. Zero for loop-internal
	// submissions, which never queue.
	enq time.Time
	// forceUp requests upstream forwarding without local module matching
	// (used by modules re-forwarding a request toward the root).
	forceUp bool
	// ctl carries loop-internal commands (attach, link down, shutdown).
	ctl func()
}

// Config parameterizes a Broker.
type Config struct {
	Rank  int
	Size  int
	Arity int // tree fan-out; 0 defaults to 2 (the paper's binary tree)
	Clock clock.Clock
	// EventHistory is how many recent events are cached for resync after
	// re-parenting; 0 defaults to 1024.
	EventHistory int
	// Reparent, when non-nil, is invoked (on its own goroutine) after the
	// parent links fail, giving the session a chance to re-wire this
	// broker to a new parent. It implements the paper's "self-heal when
	// interior nodes fail".
	Reparent func(b *Broker, oldParentRank int)
	// Log, when non-nil, receives broker diagnostics.
	Log func(format string, args ...any)
	// RPCTimeout is the default deadline applied to Handle RPCs that do
	// not specify their own. 0 defaults to DefaultRPCTimeout; negative
	// disables the default deadline entirely (callers may still pass one
	// per call).
	RPCTimeout time.Duration
	// TraceSpans is the capacity of the broker's trace-span ring buffer.
	// 0 defaults to obs.DefaultTraceSpans; negative disables span
	// recording entirely (the metrics registry stays on).
	TraceSpans int
	// LogRecords is the capacity of the broker's structured log ring
	// (the log plane behind flux dmesg and the flight recorder). 0
	// defaults to obs.DefaultLogRecords; negative disables buffering
	// (records still reach the Log mirror).
	LogRecords int
	// LogLevel caps the severity recorded into the log ring; 0 defaults
	// to obs.LevelDebug (record everything).
	LogLevel int
	// SessionID names the comms session for the cmb.join membership
	// handshake: a joiner presenting a different id is refused admission.
	SessionID string
	// Epoch seeds the membership epoch (0 means the founding epoch, 1).
	// Brokers added by growth are seeded with the epoch current at their
	// creation so replayed membership history is a no-op for them.
	Epoch uint32
	// Tombstones seeds the set of already-departed ranks, for brokers
	// added by growth after earlier shrinks.
	Tombstones []int
	// Joined marks a broker added by session growth after the founding
	// ranks started (see Broker.JoinedLate).
	Joined bool
	// Grow / Shrink, when non-nil, serve the cmb.grow / cmb.shrink
	// requests by adding n fresh ranks (returning the first new rank) /
	// gracefully draining the given ranks. The session installs them on
	// every broker; without them those topics answer ENOSYS.
	Grow   func(n int) (int, error)
	Shrink func(ranks []int) error
	// Restart, when non-nil, serves cmb.restart by bringing a previously
	// killed or crashed rank back through the join path, cold-loading its
	// durable state from disk. ENOSYS otherwise.
	Restart func(rank int) error
	// SyncInterval is the period of membership anti-entropy: non-root
	// brokers pull the parent's view this often, guaranteeing eventual
	// membership convergence even when every event carrying a change was
	// lost and no later traffic carries a newer epoch. 0 defaults to
	// DefaultSyncInterval; negative disables the periodic pull (the
	// gap- and epoch-triggered syncs remain).
	SyncInterval time.Duration
	// Shards is the number of route-dispatch shards. Messages are
	// partitioned by flow — arrival link plus match tag — so independent
	// RPC flows route concurrently while each flow stays FIFO; events,
	// controls, and link teardown always serialize on shard 0. Each
	// module still has one inbox FIFO whatever the shard count. 0
	// defaults to min(GOMAXPROCS, 8); 1 restores the fully serialized
	// single-loop dispatch.
	Shards int
}

// DefaultSyncInterval is the default membership anti-entropy period.
const DefaultSyncInterval = 2 * time.Second

// Stats are cumulative broker counters, readable at any time. They are
// a typed snapshot of the broker's obs.Registry counters (see
// Broker.Metrics for the full registry, histograms included).
type Stats struct {
	RequestsRouted   uint64 // requests entering routing
	RequestsUpstream uint64 // requests forwarded to the tree parent
	RequestsRing     uint64 // requests forwarded on the ring
	ResponsesRouted  uint64
	EventsPublished  uint64 // events sequenced at this (root) broker
	EventsApplied    uint64
	EventsDuplicate  uint64 // dropped as already-seen after resync
	EventSeqGaps     uint64
	Reparents        uint64
	SendErrors       uint64 // outbound link sends that failed (conn closed, handle gone)
	InflightFailed   uint64 // routed RPCs failed with EHOSTUNREACH on a return-route link drop
	Joins            uint64 // membership join events folded into the view
	Leaves           uint64 // membership leave events folded into the view
	Drains           uint64 // departing child ranks this broker drained
	EpochRejects     uint64 // messages refused at the membership fence
}

// counters are the broker's hot-path counters: handles into the
// registry resolved once at New so every increment is a single
// uncontended atomic add, with no broker lock involved (they used to
// live under b.mu, which serialized the routing loop against every
// Stats reader).
type counters struct {
	requestsRouted   *obs.Counter
	requestsUpstream *obs.Counter
	requestsRing     *obs.Counter
	responsesRouted  *obs.Counter
	eventsPublished  *obs.Counter
	eventsApplied    *obs.Counter
	eventsDuplicate  *obs.Counter
	eventSeqGaps     *obs.Counter
	// Encode-once fan-out: one "encode" per event whose frame was built
	// for a frame-capable child, one "reuse" per additional send served
	// from that same shared encoding (fan-out siblings and resync
	// replays). reuse/encodes is the marshals-saved ratio.
	eventsFanoutEncodes *obs.Counter
	eventsFanoutReuse   *obs.Counter
	reparents           *obs.Counter
	sendErrors          *obs.Counter
	inflightFailed      *obs.Counter
	joins               *obs.Counter
	leaves              *obs.Counter
	drains              *obs.Counter
	epochRejects        *obs.Counter

	// One per recipient-table entry built (see recipientsLocked): zero
	// while the subscription state holds still.
	recipientRebuilds *obs.Counter

	// Silent-drop observability: each logf-only drop path also counts,
	// mirroring the epoch-discipline rule for fenced messages.
	dropsUnknownType    *obs.Counter
	dropsEmptyRoute     *obs.Counter
	dropsUnknownLink    *obs.Counter
	dropsUnknownControl *obs.Counter

	// Log plane.
	logRecords    *obs.Counter
	logForwarded  *obs.Counter
	logFwdBatches *obs.Counter
}

// hists are the broker's hot-path latency histograms.
type hists struct {
	requestQueue  *obs.Histogram // inbox wait of routed requests
	routeRequest  *obs.Histogram // routeRequest handle time
	routeResponse *obs.Histogram // routeResponse handle time
	applyEvent    *obs.Histogram // applyEvent fan-out time
}

// Broker is one CMB rank.
type Broker struct {
	cfg  Config
	tree topo.Tree
	ring topo.Ring

	// Sharded dispatch core: inbound work is partitioned by flow across
	// nshards combining-lock shards (see shard), replacing the single
	// submit -> loop() pipeline. Each shard carries its own queue,
	// worker, and slice of the in-flight table; shard 0 additionally
	// owns everything that needs the old loop's total order — events,
	// controls, and link-down cleanup.
	shards  []*shard
	nshards int

	// mu is a debuglock.Mutex so `-tags debuglock` builds verify the
	// broker's lock ordering (broker.evMu -> broker.mu -> handle.mu,
	// never reversed). It guards the authoritative registries (links,
	// modules) and cold state; the routing hot path reads the registries
	// through the lock-free snapshots below instead.
	mu    debuglock.Mutex
	links map[string]*link
	// linksSnap / modsSnap are copy-on-write snapshots of the link and
	// module registries, republished under mu at every mutation and read
	// lock-free by the dispatch shards (response forwarding, local
	// dispatch). They trade a map copy per topology change — rare — for
	// zero shared-lock traffic per routed message.
	linksSnap   atomic.Pointer[map[string]*link]
	parentTree  atomic.Pointer[link] // written under mu; read lock-free
	parentEvent atomic.Pointer[link]
	ringOut     atomic.Pointer[link]
	parentRank  int
	modules     map[string]*moduleRunner
	modsSnap    atomic.Pointer[map[string]*moduleRunner]
	closed      bool
	reparenting bool // a Reparent callback is in flight
	// view is this broker's membership view: the dynamic rank space with
	// departed ranks tombstoned. It converges across brokers by folding
	// the totally ordered live.join / live.leave events (guarded by mu;
	// epoch and space shadow its hot-path reads atomically).
	view       *topo.View
	epoch      atomic.Uint32 // current membership epoch
	space      atomic.Uint32 // current rank-space size (view.Size())
	syncing    atomic.Bool   // membership anti-entropy pull in flight
	epochGauge *obs.Gauge

	handleSeq atomic.Uint64

	// Observability plane: the metrics registry (shared with this
	// broker's comms modules via Metrics), resolved hot-path counter and
	// histogram handles, the bounded trace-span ring, and the sequence
	// for originating trace ids.
	metrics  *obs.Registry
	ctr      counters
	hist     hists
	traces   *obs.TraceBuffer
	traceSeq atomic.Uint64
	depth    int // this rank's depth in the tree (root = 0)

	// Log plane: the structured record ring and its leveled front end
	// (b.log replaces the old ad-hoc b.logf), plus the aggregation ring
	// holding warn+ records forwarded up the tree by descendants. boot
	// stamps this incarnation so records survive rank restarts
	// unambiguously. lastFwd is the forwarding cursor: the highest local
	// Seq already batched upstream.
	log     *obs.Logger
	fwd     *obs.LogRing
	boot    int64
	lastFwd atomic.Uint64
	fwding  atomic.Bool // an upstream log batch is being built

	// bg tracks loop-spawned background work (e.g. async rmmod drains)
	// so Shutdown does not return while any of it is still running.
	bg sync.WaitGroup

	// evMu serializes event sequencing/apply with backlog replay. At the
	// root, cmb.pub requests route on arbitrary shards, so without it
	// two publications could interleave their sequence assignment and
	// their fan-out sends; and a resync replay racing a live apply could
	// let the fresher event reach the just-ungated child first, making
	// it drop the whole replayed backlog as duplicates. Lock order:
	// evMu before mu, never the reverse.
	evMu debuglock.Mutex

	eventSeq     uint64     // root only: last assigned sequence number (guarded by evMu)
	lastEventSeq uint64     // last applied sequence number (guarded by mu)
	eventHist    []eventRec // recent events + shared encodings (guarded by mu)

	// Recipient table (recipients.go): recipGen counts changes to who
	// receives an event; recipTab maps a topic to its recipients as of
	// generation recipAt (both guarded by evMu).
	recipGen atomic.Uint64
	recipAt  uint64
	recipTab map[string]*eventRecipients

	done chan struct{} // closed once every shard worker has exited
}

// shard is one dispatch lane of the broker's sharded routing core. It
// is a combining lock: a submitter that finds the shard idle — nothing
// queued, no active processor — claims the busy token and routes its
// message inline on its own goroutine, so the common uncontended hop
// pays zero scheduler wakeups; contended or backlogged submissions
// append to the queue for the shard's worker. The busy token plus the
// queue-empty check preserve strict per-shard FIFO: work is only taken
// inline when nothing is logically ahead of it, and the worker never
// runs while an inline submitter holds the token.
type shard struct {
	// proc is the dispatch function (the broker's process); the shard
	// itself is just a combining-lock executor and stays agnostic of
	// what the work units mean.
	proc   func(inbound)
	mu     sync.Mutex
	cond   *sync.Cond
	q      []inbound
	head   int // q[:head] already consumed; popped lazily to avoid per-item reslicing
	busy   bool
	closed bool

	// imu guards this shard's slice of the in-flight request table:
	// requests forwarded over an outbound link whose responses must
	// retrace through this broker. Entries live on the shard that routes
	// the flow, so the request forward, the response settle, and a
	// link-down sweep only ever contend within one flow's shard. When an
	// outbound link drops, every entry tracked over it is failed with
	// ErrnoHostUnreach back toward its requester, so no caller waits on
	// a response that can never arrive (the no-hang guarantee's fast
	// path; the RPC deadline is the backstop for silent faults).
	imu      sync.Mutex
	inflight map[string]*inflightReq
}

// run is the shard's worker: it drains the queue whenever submitters
// are not carrying the work inline, and exits once the shard is closed,
// drained, and idle.
func (s *shard) run() {
	s.mu.Lock()
	for {
		for {
			if s.head < len(s.q) && !s.busy {
				break
			}
			if s.closed && s.head == len(s.q) && !s.busy {
				s.mu.Unlock()
				return
			}
			s.cond.Wait()
		}
		in := s.q[s.head]
		s.q[s.head] = inbound{}
		s.head++
		if s.head == len(s.q) {
			s.q = s.q[:0]
			s.head = 0
		} else if s.head >= 1024 && s.head*2 >= len(s.q) {
			// A backlog that never fully drains would otherwise grow the
			// slab forever behind a dead prefix.
			n := copy(s.q, s.q[s.head:])
			clearTail := s.q[n:]
			for i := range clearTail {
				clearTail[i] = inbound{}
			}
			s.q = s.q[:n]
			s.head = 0
		}
		s.busy = true
		s.mu.Unlock()
		s.proc(in)
		s.mu.Lock()
		s.busy = false
	}
}

// enqueue hands in to the shard, routing it inline when the shard is
// idle. It reports false once the shard is closed.
func (s *shard) enqueue(in inbound) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	if !s.busy && s.head == len(s.q) {
		s.busy = true
		s.mu.Unlock()
		s.proc(in)
		s.mu.Lock()
		s.busy = false
		if s.head < len(s.q) || s.closed {
			s.cond.Signal()
		}
		s.mu.Unlock()
		return true
	}
	// Queue residency is only stamped here, on the backlog path: work
	// taken inline never waits, so the fast path pays no clock read and
	// queueWait correctly reports zero for it.
	if in.enq.IsZero() && in.msg != nil {
		in.enq = time.Now()
	}
	s.q = append(s.q, in)
	s.cond.Signal()
	s.mu.Unlock()
	return true
}

// shardFor picks the dispatch shard for one inbound unit. The mapping
// carries the broker's ordering contracts into the concurrent world:
//
//   - Events, controls, and internal ctl thunks all map to shard 0,
//     keeping the event plane's total order and the link-teardown
//     ordering of the old single loop.
//   - A request arriving over a link is keyed by (arrival link, match
//     tag) — the flow identity. routeRequest pushes the arrival hop, so
//     that key is exactly the route top the response will carry back:
//     the response lands on the same shard and settles the flow's
//     in-flight entry there.
//   - Responses, and internally submitted messages whose route stack
//     already carries their arrival hop, are keyed by (route top, match
//     tag) for the same reason.
func (b *Broker) shardFor(in inbound) int {
	if b.nshards == 1 || in.ctl != nil || in.msg == nil {
		return 0
	}
	m := in.msg
	if m.Type == wire.Event || m.Type == wire.Control {
		return 0
	}
	if m.Type == wire.Request && in.from != nil {
		return b.shardOfFlow(in.from.id, m.Seq)
	}
	if len(m.Route) > 0 {
		return b.shardOfFlow(m.Route[len(m.Route)-1], m.Seq)
	}
	return b.shardOfFlow("", m.Seq)
}

// shardOfFlow hashes a flow identity — return-hop link id plus match
// tag — onto a shard index (FNV-1a, inlined to keep the hot path
// allocation-free).
func (b *Broker) shardOfFlow(key string, seq uint64) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	h ^= seq
	h *= prime64
	return int(h % uint64(b.nshards))
}

// publishLinksLocked republishes the lock-free link-registry snapshot
// and invalidates the event recipient table; call with b.mu held after
// any mutation of b.links.
func (b *Broker) publishLinksLocked() {
	snap := make(map[string]*link, len(b.links))
	for id, l := range b.links {
		snap[id] = l
	}
	b.linksSnap.Store(&snap)
	b.invalidateRecipients()
}

// publishModulesLocked republishes the lock-free module-registry
// snapshot and invalidates the event recipient table; call with b.mu
// held after any mutation of b.modules.
func (b *Broker) publishModulesLocked() {
	snap := make(map[string]*moduleRunner, len(b.modules))
	for name, r := range b.modules {
		snap[name] = r
	}
	b.modsSnap.Store(&snap)
	b.invalidateRecipients()
}

// New creates a broker for the given rank. Links are attached afterwards
// with AttachConn / SetParent, then Start runs the routing loop.
func New(cfg Config) (*Broker, error) {
	if cfg.Arity == 0 {
		cfg.Arity = 2
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real()
	}
	if cfg.EventHistory == 0 {
		cfg.EventHistory = 1024
	}
	tree, err := topo.NewTree(cfg.Size, cfg.Arity)
	if err != nil {
		return nil, err
	}
	if !tree.Valid(cfg.Rank) {
		return nil, fmt.Errorf("broker: rank %d outside session of size %d", cfg.Rank, cfg.Size)
	}
	ring, err := topo.NewRing(cfg.Size)
	if err != nil {
		return nil, err
	}
	if cfg.RPCTimeout == 0 {
		cfg.RPCTimeout = DefaultRPCTimeout
	}
	if cfg.SyncInterval == 0 {
		cfg.SyncInterval = DefaultSyncInterval
	}
	b := &Broker{
		cfg:        cfg,
		tree:       tree,
		ring:       ring,
		links:      make(map[string]*link),
		modules:    make(map[string]*moduleRunner),
		recipTab:   make(map[string]*eventRecipients),
		parentRank: tree.Parent(cfg.Rank),
		done:       make(chan struct{}),
	}
	b.mu.SetClass("broker.Broker.mu")
	b.evMu.SetClass("broker.Broker.evMu")
	nsh := cfg.Shards
	if nsh == 0 {
		nsh = runtime.GOMAXPROCS(0)
		if nsh > 8 {
			nsh = 8
		}
	}
	if nsh < 1 {
		nsh = 1
	}
	b.nshards = nsh
	b.shards = make([]*shard, nsh)
	for i := range b.shards {
		s := &shard{proc: b.process, inflight: make(map[string]*inflightReq)}
		s.cond = sync.NewCond(&s.mu)
		b.shards[i] = s
	}
	b.publishLinksLocked()
	b.publishModulesLocked()
	for r := cfg.Rank; tree.Parent(r) >= 0; r = tree.Parent(r) {
		b.depth++
	}
	b.view = topo.NewView(tree)
	for _, r := range cfg.Tombstones {
		b.view.Leave(r)
	}
	epoch := cfg.Epoch
	if epoch == 0 {
		epoch = 1
	}
	b.epoch.Store(epoch)
	b.space.Store(uint32(b.view.Size()))
	reg := obs.NewRegistry()
	b.metrics = reg
	b.ctr = counters{
		requestsRouted:   reg.Counter(wire.MetricRequestsRouted),
		requestsUpstream: reg.Counter(wire.MetricRequestsUpstream),
		requestsRing:     reg.Counter(wire.MetricRequestsRing),
		responsesRouted:  reg.Counter(wire.MetricResponsesRouted),
		eventsPublished:  reg.Counter(wire.MetricEventsPublished),
		eventsApplied:    reg.Counter(wire.MetricEventsApplied),
		eventsDuplicate:  reg.Counter(wire.MetricEventsDuplicate),
		eventSeqGaps:     reg.Counter(wire.MetricEventSeqGaps),

		eventsFanoutEncodes: reg.Counter(wire.MetricEventsFanoutEncodes),
		eventsFanoutReuse:   reg.Counter(wire.MetricEventsFanoutReuse),
		reparents:           reg.Counter(wire.MetricReparents),
		sendErrors:          reg.Counter(wire.MetricSendErrors),
		inflightFailed:      reg.Counter(wire.MetricInflightFailed),
		joins:               reg.Counter(wire.MetricJoins),
		leaves:              reg.Counter(wire.MetricLeaves),
		drains:              reg.Counter(wire.MetricDrains),
		epochRejects:        reg.Counter(wire.MetricEpochRejects),

		recipientRebuilds: reg.Counter(wire.MetricEventRecipientRebuilds),

		dropsUnknownType:    reg.Counter(wire.MetricDropsUnknownType),
		dropsEmptyRoute:     reg.Counter(wire.MetricDropsEmptyRoute),
		dropsUnknownLink:    reg.Counter(wire.MetricDropsUnknownLink),
		dropsUnknownControl: reg.Counter(wire.MetricDropsUnknownControl),

		logRecords:    reg.Counter(wire.MetricLogRecords),
		logForwarded:  reg.Counter(wire.MetricLogForwarded),
		logFwdBatches: reg.Counter(wire.MetricLogFwdBatches),
	}
	b.epochGauge = reg.Gauge(wire.MetricEpoch)
	b.epochGauge.Set(int64(epoch))
	b.hist = hists{
		requestQueue:  reg.Histogram(wire.MetricRequestQueueNS),
		routeRequest:  reg.Histogram(wire.MetricRouteRequestNS),
		routeResponse: reg.Histogram(wire.MetricRouteResponseNS),
		applyEvent:    reg.Histogram(wire.MetricApplyEventNS),
	}
	spans := cfg.TraceSpans
	if spans == 0 {
		spans = obs.DefaultTraceSpans
	}
	if spans < 0 {
		spans = 0
	}
	b.traces = obs.NewTraceBuffer(spans)

	// Log plane: the local record ring, a same-sized aggregation ring
	// for records forwarded up by descendants, and the leveled logger.
	recs := cfg.LogRecords
	if recs == 0 {
		recs = obs.DefaultLogRecords
	}
	if recs < 0 {
		recs = 0
	}
	b.boot = time.Now().UnixNano()
	b.log = obs.NewLogger(obs.NewLogRing(recs, b.boot), cfg.Rank)
	b.fwd = obs.NewLogRing(recs, b.boot)
	if cfg.LogLevel != 0 {
		b.log.SetVerbosity(cfg.LogLevel)
	}
	b.log.SetEpochFn(b.epoch.Load)
	b.log.SetCounter(b.ctr.logRecords)
	if cfg.Log != nil {
		sink, rank := cfg.Log, cfg.Rank
		b.log.SetMirror(func(r obs.Record) {
			sink("rank %d: [%s] %s", rank, r.Sub, r.Msg)
		})
	}
	return b, nil
}

// Logger returns the broker's leveled logger; comms modules and the
// session log through it so their records land in the rank's ring with
// rank/epoch/severity stamps.
func (b *Broker) Logger() *obs.Logger { return b.log }

// newTraceID originates a session-unique, nonzero trace id: the
// originating rank (+1, so rank 0 still yields nonzero ids) in the high
// bits over a per-broker sequence.
func (b *Broker) newTraceID() uint64 {
	return uint64(b.cfg.Rank+1)<<40 | (b.traceSeq.Add(1) & (1<<40 - 1))
}

// Metrics returns the broker's observability registry. Comms modules
// loaded into this broker record their metrics here (namespaced by
// module name), so one registry snapshot covers the whole rank.
func (b *Broker) Metrics() *obs.Registry { return b.metrics }

// Traces returns the broker's bounded trace-span ring.
func (b *Broker) Traces() *obs.TraceBuffer { return b.traces }

// inflightReq is the bookkeeping for one request forwarded over an
// outbound link (see Broker.inflight).
type inflightReq struct {
	topic   string
	seq     uint64
	route   []string // route stack at forward time (top = arrival hop)
	out     string   // outbound link id
	arrival string   // arrival link id ("" for broker-internal submissions)
	// Trace context at forward time, so the EHOSTUNREACH response
	// synthesized on a link drop carries the request's trace and its
	// failure span lands in the right chain.
	traceID uint64
	parent  uint8
	hops    uint8
}

// inflightKey identifies a forwarded request by its match tag plus the
// return route, which together are unique: handle ids are broker-unique
// and tags are unique per handle.
func inflightKey(seq uint64, route []string) string {
	var num [20]byte
	n := 21
	for _, hop := range route {
		n += len(hop) + 1
	}
	var sb strings.Builder
	sb.Grow(n)
	sb.Write(strconv.AppendUint(num[:0], seq, 10))
	for _, hop := range route {
		sb.WriteByte('|')
		sb.WriteString(hop)
	}
	return sb.String()
}

// forwardTracked forwards a routed request over out, recording it in
// the flow shard's in-flight table so a death of out fails it back fast
// (see linkDown). Requests with no match tag (fire-and-forget) or no
// return route are not tracked: nothing is waiting on them.
//
// Sharding opens a race the single routing loop never had: the send and
// the link's teardown sweep now run on different goroutines. The entry
// is inserted before the send; if the send fails — or the link was
// deregistered underneath it, meaning the teardown sweep may already
// have run and missed the fresh entry — whichever side deletes the
// entry under imu (this path or the sweep) synthesizes the
// EHOSTUNREACH, so the requester hears exactly one verdict.
func (b *Broker) forwardTracked(m *wire.Message, out *link, arrival string) {
	if m.Seq == 0 || len(m.Route) == 0 {
		b.sendHandoff(out, m)
		return
	}
	e := &inflightReq{
		topic:   m.Topic,
		seq:     m.Seq,
		route:   append([]string(nil), m.Route...),
		out:     out.id,
		arrival: arrival,
		traceID: m.TraceID,
		parent:  m.Parent,
		hops:    m.Hops,
	}
	key := inflightKey(e.seq, e.route)
	s := b.shards[b.shardOfFlow(e.route[len(e.route)-1], e.seq)]
	s.imu.Lock()
	s.inflight[key] = e
	s.imu.Unlock()
	err := b.sendHandoffErr(out, m) // m belongs to the link writer now; use e below
	if err == nil && b.linkRegistered(out) {
		return
	}
	s.imu.Lock()
	_, present := s.inflight[key]
	if present {
		delete(s.inflight, key)
	}
	s.imu.Unlock()
	if present {
		b.failInflight(e)
	}
}

// linkRegistered reports whether l is still the registry's link for its
// id. linkDown deregisters before sweeping the in-flight tables, so a
// link observed here as registered is guaranteed to have its entries
// swept by any later teardown.
func (b *Broker) linkRegistered(l *link) bool {
	snap := b.linksSnap.Load()
	return snap != nil && (*snap)[l.id] == l
}

// failInflight answers a tracked request with EHOSTUNREACH after its
// outbound link died; the synthesized response retraces the recorded
// route under the request's trace context.
func (b *Broker) failInflight(e *inflightReq) {
	b.ctr.inflightFailed.Inc()
	req := &wire.Message{Type: wire.Request, Topic: e.topic, Seq: e.seq, Route: e.route,
		TraceID: e.traceID, Parent: e.parent, Hops: e.hops}
	b.routeResponse(inbound{msg: wire.NewErrorResponse(req, ErrnoHostUnreach,
		fmt.Sprintf("rank %d: link %s down on return route", b.cfg.Rank, e.out))})
}

// inflightCount sums the shard in-flight tables (for tests and
// introspection).
func (b *Broker) inflightCount() int {
	n := 0
	for _, s := range b.shards {
		s.imu.Lock()
		n += len(s.inflight)
		s.imu.Unlock()
	}
	return n
}

// Rank returns this broker's rank in the comms session.
func (b *Broker) Rank() int { return b.cfg.Rank }

// Size returns the comms session size.
func (b *Broker) Size() int { return b.cfg.Size }

// Tree returns the request-plane tree shape.
func (b *Broker) Tree() topo.Tree { return b.tree }

// Clock returns the broker's time source.
func (b *Broker) Clock() clock.Clock { return b.cfg.Clock }

// IsRoot reports whether this broker is the session root (rank 0).
func (b *Broker) IsRoot() bool { return b.cfg.Rank == 0 }

// ParentRank returns the current tree-parent rank, or -1 at the root.
// It changes after self-healing re-parenting.
func (b *Broker) ParentRank() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.parentRank
}

// Stats returns a snapshot of the broker's counters. Each field is an
// independent atomic load; no broker lock is taken, so Stats is safe to
// poll at any rate without slowing the routing loop.
func (b *Broker) Stats() Stats {
	return Stats{
		RequestsRouted:   b.ctr.requestsRouted.Load(),
		RequestsUpstream: b.ctr.requestsUpstream.Load(),
		RequestsRing:     b.ctr.requestsRing.Load(),
		ResponsesRouted:  b.ctr.responsesRouted.Load(),
		EventsPublished:  b.ctr.eventsPublished.Load(),
		EventsApplied:    b.ctr.eventsApplied.Load(),
		EventsDuplicate:  b.ctr.eventsDuplicate.Load(),
		EventSeqGaps:     b.ctr.eventSeqGaps.Load(),
		Reparents:        b.ctr.reparents.Load(),
		SendErrors:       b.ctr.sendErrors.Load(),
		InflightFailed:   b.ctr.inflightFailed.Load(),
		Joins:            b.ctr.joins.Load(),
		Leaves:           b.ctr.leaves.Load(),
		Drains:           b.ctr.drains.Load(),
		EpochRejects:     b.ctr.epochRejects.Load(),
	}
}

// AttachConn registers a transport connection as a link of the given
// kind and starts its reader. Safe to call before or after Start.
func (b *Broker) AttachConn(kind LinkKind, c transport.Conn) {
	b.attachConn(kind, c, false)
}

// AttachPendingConn registers the child tree link of a joining rank:
// the link starts pending, so the membership fence admits nothing but
// the cmb.join handshake on it until the join is served.
func (b *Broker) AttachPendingConn(kind LinkKind, c transport.Conn) {
	b.attachConn(kind, c, true)
}

func (b *Broker) attachConn(kind LinkKind, c transport.Conn, pending bool) {
	l := &link{kind: kind, id: kind.prefix() + c.PeerIdentity(), conn: c}
	if kind == LinkChildEvent {
		// Opened by the child's cmb.resync. The registry republish below
		// invalidates the recipient table for the new, gated link.
		l.gated = true
	}
	if pending {
		l.pending.Store(true)
	}
	b.meterLink(l)
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		c.Close()
		return
	}
	// A link with the same id means the peer was re-wired to this broker
	// again (e.g. the ring re-spliced onto the same neighbour). Close the
	// displaced conn: overwriting the registry entry alone would orphan
	// it, leaking its read loop past Shutdown.
	displaced := b.links[l.id]
	b.links[l.id] = l
	switch kind {
	case LinkParentTree:
		b.parentTree.Store(l)
	case LinkParentEvent:
		b.parentEvent.Store(l)
	case LinkRingOut:
		b.ringOut.Store(l)
	}
	b.publishLinksLocked()
	b.mu.Unlock()
	if displaced != nil && displaced.conn != nil {
		displaced.conn.Close()
	}
	go b.readLoop(l)
}

// ReplaceRingOut re-points this broker's ring-out link at a new
// next-live neighbour (the membership just grew or shrank) and closes
// the old link. Requests in flight on the old link fail fast with
// EHOSTUNREACH and are retried by their callers over the new wiring.
func (b *Broker) ReplaceRingOut(c transport.Conn) {
	old := b.ringOut.Load()
	b.AttachConn(LinkRingOut, c)
	if old != nil && old.conn != nil {
		old.conn.Close()
	}
}

// DropRingOut closes the ring-out link without a replacement: this
// broker is the sole live rank, so the ring plane has no peer left.
func (b *Broker) DropRingOut() {
	b.mu.Lock()
	old := b.ringOut.Load()
	b.ringOut.Store(nil)
	b.mu.Unlock()
	if old != nil && old.conn != nil {
		old.conn.Close()
	}
}

// meterLink installs per-link traffic counters on metered transports
// (bytes each way plus frames saved by write coalescing), named
// "link.<id>.*" in the broker registry so they surface in cmb.stats and
// the mon reduction automatically.
func (b *Broker) meterLink(l *link) {
	mc, ok := l.conn.(transport.Metered)
	if !ok {
		return
	}
	mc.SetMeter(
		b.metrics.Counter(wire.MetricLinkPrefix+l.id+wire.MetricSuffixBytesSent),
		b.metrics.Counter(wire.MetricLinkPrefix+l.id+wire.MetricSuffixBytesRecv),
		b.metrics.Counter(wire.MetricLinkPrefix+l.id+wire.MetricSuffixFramesCoalesc),
	)
}

// readLoop pumps messages from a connection into the dispatch shards.
// The link-down cleanup rides shard 0 as a ctl thunk, after every
// message the read loop itself submitted there.
func (b *Broker) readLoop(l *link) {
	for {
		m, err := l.conn.Recv()
		if err != nil {
			b.shards[0].enqueue(inbound{ctl: func() { b.linkDown(l) }})
			return
		}
		b.submit(inbound{msg: m, from: l})
	}
}

// Start launches the shard workers (the routing core, until Shutdown)
// plus the periodic membership anti-entropy pull on non-root brokers.
func (b *Broker) Start() {
	var wg sync.WaitGroup
	wg.Add(len(b.shards))
	for _, s := range b.shards {
		go func(s *shard) {
			defer wg.Done()
			s.run()
		}(s)
	}
	go func() {
		wg.Wait()
		close(b.done)
	}()
	if b.cfg.Rank != 0 && b.cfg.SyncInterval > 0 {
		b.bg.Add(1)
		go b.runAntiEntropy()
	}
}

// process executes one unit of inbound work. It runs on whichever
// goroutine holds the owning shard's busy token — the shard worker or
// an inline submitter — so everything it calls must be safe off the old
// single routing loop: registry reads go through the lock-free
// snapshots, in-flight bookkeeping through the flow shard's imu, and
// event apply/replay through evMu.
func (b *Broker) process(in inbound) {
	if in.ctl != nil {
		in.ctl()
		return
	}
	if !b.admitEpoch(in) {
		return
	}
	// A peer operating under a newer membership epoch means this
	// broker's view may be stale: pull the root's view off-loop.
	if in.from != nil && in.msg.Epoch > b.epoch.Load() {
		b.startMembershipSync()
	}
	switch in.msg.Type {
	case wire.Request:
		b.routeRequest(in)
	case wire.Response:
		b.routeResponse(in)
	case wire.Event:
		b.applyEvent(in.msg)
	case wire.Control:
		b.handleControl(in)
	default:
		b.ctr.dropsUnknownType.Inc()
		b.log.Warnf(wire.ServiceCMB, "dropping message of unknown type %d", in.msg.Type)
	}
}

// submit is how handles, modules, and read loops inject work into the
// dispatch core.
func (b *Broker) submit(in inbound) bool {
	return b.shards[b.shardFor(in)].enqueue(in)
}

// routeRequest implements the paper's routing rules: requests travel
// upstream in the tree to the first matching comms module, or around the
// ring when addressed to a concrete rank. Every routed request advances
// the message's trace context one hop and records a span; the span
// fields are captured into locals before the message is handed to its
// next owner (a module inbox or an outbound link), so recording never
// races with downstream mutation.
func (b *Broker) routeRequest(in inbound) {
	start := time.Now()
	m := in.msg
	b.ctr.requestsRouted.Inc()
	if in.from != nil {
		m.PushRoute(in.from.id)
	}

	arrival := ""
	if in.from != nil {
		arrival = in.from.id
	}

	if m.TraceID == 0 {
		m.TraceID = b.newTraceID()
	}
	if m.Epoch == 0 {
		m.Epoch = b.epoch.Load()
	}
	m.Parent = m.Hops
	if m.Hops < 255 {
		m.Hops++
	}
	tid, parent, hop, topic := m.TraceID, m.Parent, m.Hops, m.Topic

	var outLink string
	var errnum int32

	switch {
	case m.Nodeid == wire.NodeidUpstream:
		m.Nodeid = wire.NodeidAny
		outLink, errnum = b.forwardUpstream(m, arrival)
	case m.Nodeid == wire.NodeidAny:
		if in.forceUp {
			outLink, errnum = b.forwardUpstream(m, arrival)
			break
		}
		if outLink = b.dispatchLocal(m); outLink != "" {
			break
		}
		outLink, errnum = b.forwardUpstream(m, arrival)
	case int(m.Nodeid) == b.cfg.Rank:
		if outLink = b.dispatchLocal(m); outLink == "" {
			errnum = ErrnoNoSys
			b.respondErr(m, ErrnoNoSys, fmt.Sprintf("no module %q at rank %d", m.Service(), b.cfg.Rank))
		}
	case int(m.Nodeid) < b.RankSpace() || !b.IsRoot():
		// Rank-addressed: forward on the ring overlay. A broker other
		// than the root forwards even a target beyond its own rank space:
		// the rank may have joined while the join event is still on its
		// way here (or to the broker that sent the request on). The root
		// sequenced every join, so it alone knows the rank space for
		// certain and rejects a truly bogus rank when the request comes
		// round to it; the TTL still bounds the trip.
		b.ctr.requestsRing.Inc()
		if b.Departed(int(m.Nodeid)) {
			// Fail fast instead of looping a request to a tombstone
			// around the ring until its TTL runs out.
			errnum = ErrnoHostUnreach
			b.respondErr(m, ErrnoHostUnreach, fmt.Sprintf("rank %d departed the session", m.Nodeid))
			break
		}
		if len(m.Route) > b.RankSpace()+8 {
			errnum = ErrnoHostUnreach
			b.respondErr(m, ErrnoHostUnreach, "ring TTL exceeded")
			break
		}
		out := b.ringOut.Load()
		if out == nil {
			errnum = ErrnoHostUnreach
			b.respondErr(m, ErrnoHostUnreach, fmt.Sprintf("rank %d unreachable: no ring link", m.Nodeid))
			break
		}
		outLink = out.id
		b.forwardTracked(m, out, arrival)
	default:
		errnum = ErrnoInval
		b.respondErr(m, ErrnoInval, fmt.Sprintf("nodeid %d outside rank space of size %d", m.Nodeid, b.RankSpace()))
	}

	queue := queueWait(in.enq, start)
	work := time.Since(start)
	b.hist.requestQueue.Observe(queue)
	b.hist.routeRequest.Observe(work)
	if outLink == "" {
		outLink = "error"
	}
	b.traces.Append(obs.Span{
		Trace: tid, Rank: b.cfg.Rank, Hop: hop, Parent: parent,
		Kind: "request", Topic: topic, Link: outLink, Errnum: errnum,
		QueueNS: int64(queue), WorkNS: int64(work), StartNS: start.UnixNano(),
	})
}

// queueWait is the inbox residence time of a message picked up at
// start; zero for loop-internal submissions that never queued.
func queueWait(enq, start time.Time) time.Duration {
	if enq.IsZero() {
		return 0
	}
	if d := start.Sub(enq); d > 0 {
		return d
	}
	return 0
}

// spanLocalCMB is the request span's Link for the built-in cmb service.
const spanLocalCMB = "local:" + wire.ServiceCMB

// dispatchLocal delivers m to a local comms module or the built-in cmb
// service. It returns the request span's Link for the local service
// that took m ("local:<service>"), or "" when none matched and m is
// still the caller's.
func (b *Broker) dispatchLocal(m *wire.Message) string {
	svc := m.Service()
	if svc == wire.ServiceCMB {
		if b.builtinRequest(m) {
			return spanLocalCMB
		}
		return ""
	}
	snap := b.modsSnap.Load()
	if snap == nil {
		return ""
	}
	r, ok := (*snap)[svc]
	if !ok {
		return ""
	}
	r.inbox.Push(m)
	return r.span
}

// forwardUpstream sends m toward the root, or answers ENOSYS at the
// root. At a non-root broker whose parent link is down (crashed parent,
// re-parenting still in flight) it answers EHOSTUNREACH instead, so
// callers fail fast and can retry after the overlay self-heals. It
// returns the outbound link id (or "") and the errnum it answered with,
// for the caller's trace span.
func (b *Broker) forwardUpstream(m *wire.Message, arrival string) (string, int32) {
	b.ctr.requestsUpstream.Inc()
	p := b.parentTree.Load()
	if p == nil {
		if b.IsRoot() {
			b.respondErr(m, ErrnoNoSys, fmt.Sprintf("no module %q in session", m.Service()))
			return "", ErrnoNoSys
		}
		b.respondErr(m, ErrnoHostUnreach,
			fmt.Sprintf("rank %d: parent link down (re-parenting)", b.cfg.Rank))
		return "", ErrnoHostUnreach
	}
	b.forwardTracked(m, p, arrival)
	return p.id, 0
}

// routeResponse pops one hop off the route stack and forwards. A
// response passing through settles the matching in-flight entry created
// when the request was forwarded. Traced responses continue the
// request's hop numbering and record a span per hop, including the
// errnum they carry (so a failure's origin is visible in the chain).
func (b *Broker) routeResponse(in inbound) {
	start := time.Now()
	m := in.msg
	b.ctr.responsesRouted.Inc()
	var tid uint64
	var parent, hop uint8
	var topic string
	var errnum int32
	if m.TraceID != 0 {
		m.Parent = m.Hops
		if m.Hops < 255 {
			m.Hops++
		}
		tid, parent, hop, topic, errnum = m.TraceID, m.Parent, m.Hops, m.Topic, m.Errnum
	}
	outLink := b.forwardResponse(in)
	if tid != 0 {
		queue := queueWait(in.enq, start)
		work := time.Since(start)
		b.hist.routeResponse.Observe(work)
		if outLink == "" {
			outLink = "drop"
		}
		b.traces.Append(obs.Span{
			Trace: tid, Rank: b.cfg.Rank, Hop: hop, Parent: parent,
			Kind: "response", Topic: topic, Link: outLink, Errnum: errnum,
			QueueNS: int64(queue), WorkNS: int64(work), StartNS: start.UnixNano(),
		})
	} else {
		b.hist.routeResponse.Observe(time.Since(start))
	}
}

// forwardResponse does the actual response routing and returns the link
// the response left on ("" when it was dropped). A response passing
// through settles the flow shard's in-flight entry before the route pop,
// so the entry key still matches the forward-time route.
func (b *Broker) forwardResponse(in inbound) string {
	m := in.msg
	if m.Seq != 0 && len(m.Route) > 0 {
		s := b.shards[b.shardOfFlow(m.Route[len(m.Route)-1], m.Seq)]
		s.imu.Lock()
		if len(s.inflight) > 0 {
			delete(s.inflight, inflightKey(m.Seq, m.Route))
		}
		s.imu.Unlock()
	}
	if m.Seq == 0 && len(m.Route) == 0 {
		return "" // response to a fire-and-forget send: drop
	}
	id, ok := m.PopRoute()
	if !ok {
		b.ctr.dropsEmptyRoute.Inc()
		b.log.LogT(obs.LevelWarn, wire.ServiceCMB, m.TraceID, "response %s with empty route stack dropped", m.Topic)
		return ""
	}
	var l *link
	if snap := b.linksSnap.Load(); snap != nil {
		l = (*snap)[id]
	}
	if l == nil {
		b.ctr.dropsUnknownLink.Inc()
		b.log.LogT(obs.LevelWarn, wire.ServiceCMB, m.TraceID, "response %s to unknown link %q dropped", m.Topic, id)
		return ""
	}
	b.sendHandoff(l, m)
	return l.id
}

// respondErr generates an error response for a request and routes it
// back toward the requester. Fire-and-forget requests get no response.
func (b *Broker) respondErr(req *wire.Message, errnum int32, msg string) {
	if req.Seq == 0 {
		return
	}
	b.routeResponse(inbound{msg: wire.NewErrorResponse(req, errnum, msg)})
}

// linkDown cleans up after a connection failure or close. Requests this
// broker forwarded over the dead link are failed back toward their
// requesters with EHOSTUNREACH: their responses could only have returned
// through this link, so without this they would hang until the caller's
// deadline.
func (b *Broker) linkDown(l *link) {
	b.mu.Lock()
	// Deregister only if the registry still points at this exact link: a
	// re-wire may have installed a fresh link under the same id, and
	// deleting that one would hide a live conn from Shutdown.
	if b.links[l.id] == l {
		delete(b.links, l.id)
		b.publishLinksLocked()
	}
	parentLost := false
	oldParent := b.parentRank
	if b.parentTree.Load() == l {
		b.parentTree.Store(nil)
		parentLost = true
	}
	if b.parentEvent.Load() == l {
		b.parentEvent.Store(nil)
		parentLost = true
	}
	if b.ringOut.Load() == l {
		b.ringOut.Store(nil)
	}
	closed := b.closed
	reparent := b.cfg.Reparent
	trigger := parentLost && !closed && reparent != nil && !b.reparenting
	if trigger {
		b.reparenting = true
	}
	b.mu.Unlock()
	// Sweep the shard in-flight tables only after the registry entry is
	// deregistered (published above): forwardTracked re-checks
	// registration after its send, so any entry inserted after this
	// sweep misses it will settle itself.
	var failed []*inflightReq
	for _, s := range b.shards {
		s.imu.Lock()
		for key, e := range s.inflight {
			switch l.id {
			case e.out:
				failed = append(failed, e)
				delete(s.inflight, key)
			case e.arrival:
				// The requester's own link is gone; any response would be
				// dropped at routing time, so just forget the entry.
				delete(s.inflight, key)
			}
		}
		s.imu.Unlock()
	}
	l.conn.Close()
	for _, e := range failed {
		b.failInflight(e)
	}
	// Both parent-plane links fail on a parent death; re-parent once.
	if trigger {
		go reparent(b, oldParent)
	}
}

// SetParent atomically replaces the tree and event parent links after
// re-parenting, then requests an event resync so no sequence numbers are
// missed. newParentRank records the adoptive parent for introspection.
func (b *Broker) SetParent(treeConn, eventConn transport.Conn, newParentRank int) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		treeConn.Close()
		eventConn.Close()
		return
	}
	tl := &link{kind: LinkParentTree, id: LinkParentTree.prefix() + treeConn.PeerIdentity(), conn: treeConn}
	el := &link{kind: LinkParentEvent, id: LinkParentEvent.prefix() + eventConn.PeerIdentity(), conn: eventConn}
	b.meterLink(tl)
	b.meterLink(el)
	b.links[tl.id] = tl
	b.links[el.id] = el
	b.publishLinksLocked()
	b.parentTree.Store(tl)
	b.parentEvent.Store(el)
	b.parentRank = newParentRank
	b.reparenting = false
	last := b.lastEventSeq
	b.mu.Unlock()
	b.ctr.reparents.Inc()
	go b.readLoop(tl)
	go b.readLoop(el)
	// Ask the new parent to replay any events we missed during failover.
	resync := &wire.Message{Type: wire.Control, Topic: wire.TopicResync, Seq: last}
	b.send(el, resync)
}

// handleControl processes link-level control messages.
func (b *Broker) handleControl(in inbound) {
	switch in.msg.Topic {
	case wire.TopicResync:
		if in.from == nil {
			return
		}
		// replayEvents ungates the link itself, inside the event lock, so
		// no event sequenced between "replay backlog" and "ungate" can be
		// lost or duplicated.
		b.replayEvents(in.from, in.msg.Seq)
	case wire.TopicSub:
		if in.from != nil {
			var body struct {
				Prefix string `json:"prefix"`
			}
			if err := in.msg.UnpackJSON(&body); err == nil {
				b.mu.Lock()
				in.from.subs = append(in.from.subs, body.Prefix)
				b.invalidateRecipients()
				b.mu.Unlock()
			}
		}
	case wire.TopicUnsub:
		if in.from != nil {
			var body struct {
				Prefix string `json:"prefix"`
			}
			if err := in.msg.UnpackJSON(&body); err == nil {
				b.mu.Lock()
				subs := in.from.subs[:0]
				for _, s := range in.from.subs {
					if s != body.Prefix {
						subs = append(subs, s)
					}
				}
				in.from.subs = subs
				b.invalidateRecipients()
				b.mu.Unlock()
			}
		}
	default:
		b.ctr.dropsUnknownControl.Inc()
		b.log.Warnf(wire.ServiceCMB, "unknown control %q dropped", in.msg.Topic)
	}
}

// Shutdown stops the broker: modules are shut down, links closed, and
// in-process handles unblocked with ErrnoShutdown failures.
func (b *Broker) Shutdown() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		<-b.done
		return
	}
	b.closed = true
	links := make([]*link, 0, len(b.links))
	for _, l := range b.links {
		links = append(links, l)
	}
	runners := make([]*moduleRunner, 0, len(b.modules))
	for _, r := range b.modules {
		runners = append(runners, r)
	}
	b.mu.Unlock()

	// Handles first: failing them unblocks any module goroutine parked in
	// an RPC, so module runners can then drain and stop.
	for _, l := range links {
		if l.conn != nil {
			l.conn.Close()
		}
		if l.h != nil {
			l.h.shutdown()
		}
	}
	for _, r := range runners {
		r.stop()
	}
	for _, s := range b.shards {
		s.mu.Lock()
		s.closed = true
		s.cond.Broadcast()
		s.mu.Unlock()
	}
	<-b.done
	b.bg.Wait()
	// With every producer stopped, drop the event-history frames so the
	// release-exactly-once contract holds across broker teardown.
	b.mu.Lock()
	for i := range b.eventHist {
		if f := b.eventHist[i].frame; f != nil {
			f.Release()
		}
	}
	b.eventHist = nil
	b.mu.Unlock()
}

// matchTopic reports whether topic matches a subscription prefix, using
// the hierarchical namespace convention: a prefix matches itself and any
// dotted descendant ("kvs" matches "kvs.setroot" but not "kvsx").
func matchTopic(prefix, topic string) bool {
	if prefix == "" {
		return true
	}
	if !strings.HasPrefix(topic, prefix) {
		return false
	}
	return len(topic) == len(prefix) || topic[len(prefix)] == '.'
}
