// Package session constructs and manages comms sessions: the set of CMB
// brokers, one per rank, wired into the three overlay planes of Fig. 1
// (event tree, request/response tree, rank-addressed ring).
//
// An in-process session backs one goroutine-driven broker per rank over
// the in-proc transport — the configuration used by the examples, tests,
// and the KAP evaluation harness. Interior broker failures self-heal:
// orphaned children re-attach to their nearest live ancestor and resync
// the event stream, per the paper's "can self-heal when interior nodes
// fail".
package session

import (
	"fmt"
	"sync"
	"time"

	"fluxgo/internal/broker"
	"fluxgo/internal/clock"
	"fluxgo/internal/debuglock"
	"fluxgo/internal/obs"
	"fluxgo/internal/topo"
	"fluxgo/internal/transport"
	"fluxgo/internal/wire"
)

// ModuleFactory produces the comms-module instance to load at a rank, or
// nil to skip that rank. This realizes the paper's "module loaded at a
// configurable tree depth" policy.
type ModuleFactory func(rank, size int) broker.Module

// AtDepth restricts a module factory to ranks at tree depth <= maxDepth
// (for the given arity), the paper's knob for tuning a module's level of
// distribution or conserving node resources toward the leaves: requests
// from deeper ranks route upstream to the nearest loaded instance.
func AtDepth(maxDepth, arity int, f ModuleFactory) ModuleFactory {
	if arity == 0 {
		arity = 2
	}
	return func(rank, size int) broker.Module {
		tree, err := topo.NewTree(size, arity)
		if err != nil || tree.Depth(rank) > maxDepth {
			return nil
		}
		return f(rank, size)
	}
}

// Options configures a comms session.
type Options struct {
	Size         int
	Arity        int // tree fan-out; 0 means binary, as pictured in Fig. 1
	Clock        clock.Clock
	EventHistory int
	Modules      []ModuleFactory
	Log          func(format string, args ...any)
	// Codec routes every inter-broker link through the wire codec so each
	// hop pays a copy cost proportional to message size. Benchmarks use
	// this to make value-size effects observable in-process.
	Codec bool
	// FaultInjection wraps every inter-broker link in a controllable
	// fault injector (transport.Faulty) and enables the session's Chaos
	// controller. Chaos tests use it to drop, delay, duplicate, and
	// blackhole traffic on live links and to crash ranks silently.
	FaultInjection bool
	// FaultSeed makes every fault-injection decision reproducible. The
	// per-link RNG seeds derive deterministically from it.
	FaultSeed int64
	// RPCTimeout overrides the brokers' default RPC deadline
	// (broker.DefaultRPCTimeout when zero; negative disables it). Chaos
	// tests shorten it so liveness violations surface quickly.
	RPCTimeout time.Duration
	// SyncInterval overrides the brokers' membership anti-entropy period
	// (broker.DefaultSyncInterval when zero; negative disables it). Chaos
	// tests shorten it so membership convergence is quick after a heal.
	SyncInterval time.Duration
	// SessionID names the session for the cmb.join membership handshake;
	// empty defaults to "inproc".
	SessionID string
	// LogRecords overrides the brokers' structured log-ring capacity
	// (obs.DefaultLogRecords when zero; negative disables buffering).
	LogRecords int
	// Shards sets each broker's route-dispatch shard count (0 picks the
	// broker default). Benchmarks raise it to exercise contended flows.
	Shards int
}

// Session is a running comms session.
type Session struct {
	opts    Options
	tree    topo.Tree
	brokers []*broker.Broker
	chaos   *Chaos // non-nil when Options.FaultInjection is set

	mu   debuglock.Mutex
	dead map[int]bool
	// view is the session's own membership view (rank space plus
	// tombstones); epoch is the membership epoch it will stamp into the
	// next live.join / live.leave event. Both are guarded by mu.
	view  *topo.View
	epoch uint32
	// memberMu serializes Grow/Shrink so each membership change gets a
	// unique, monotone epoch. Never held while holding mu.
	memberMu sync.Mutex
	// recorder, when non-nil, is the flight recorder chaos faults
	// trigger (guarded by mu; see EnableFlightRecorder).
	recorder *Recorder
}

// New builds, wires, and starts an in-process comms session.
func New(opts Options) (*Session, error) {
	if opts.Arity == 0 {
		opts.Arity = 2
	}
	if opts.Clock == nil {
		opts.Clock = clock.Real()
	}
	tree, err := topo.NewTree(opts.Size, opts.Arity)
	if err != nil {
		return nil, err
	}
	if opts.SessionID == "" {
		opts.SessionID = "inproc"
	}
	s := &Session{
		opts:    opts,
		tree:    tree,
		brokers: make([]*broker.Broker, opts.Size),
		dead:    make(map[int]bool),
		view:    topo.NewView(tree),
		epoch:   1,
	}
	s.mu.SetClass("session.Session.mu")
	if opts.FaultInjection {
		s.chaos = newChaos(s, opts.FaultSeed)
	}

	for r := 0; r < opts.Size; r++ {
		b, err := broker.New(broker.Config{
			Rank:         r,
			Size:         opts.Size,
			Arity:        opts.Arity,
			Clock:        opts.Clock,
			EventHistory: opts.EventHistory,
			Log:          opts.Log,
			Reparent:     s.reparent,
			RPCTimeout:   opts.RPCTimeout,
			SyncInterval: opts.SyncInterval,
			SessionID:    opts.SessionID,
			LogRecords:   opts.LogRecords,
			Shards:       opts.Shards,
			Grow:         s.hookGrow,
			Shrink:       s.hookShrink,
			Restart:      s.hookRestart,
		})
		if err != nil {
			return nil, err
		}
		s.brokers[r] = b
	}

	// Tree planes (request/response and event), parent <-> child.
	for r := 1; r < opts.Size; r++ {
		p := tree.Parent(r)
		if err := s.wireParentChild(p, r); err != nil {
			s.Close()
			return nil, err
		}
	}

	// Ring plane: rank r -> r+1 mod size.
	if opts.Size > 1 {
		ring, _ := topo.NewRing(opts.Size)
		for r := 0; r < opts.Size; r++ {
			next := ring.Next(r)
			out, in := s.pipeRanks(r, next)
			s.brokers[r].AttachConn(broker.LinkRingOut, out)
			s.brokers[next].AttachConn(broker.LinkRingIn, in)
		}
	}

	// Load modules, then start routing.
	for r := 0; r < opts.Size; r++ {
		for _, f := range opts.Modules {
			if m := f(r, opts.Size); m != nil {
				if err := s.brokers[r].LoadModule(m); err != nil {
					return nil, fmt.Errorf("session: load module at rank %d: %w", r, err)
				}
			}
		}
	}
	for _, b := range s.brokers {
		b.Start()
	}
	return s, nil
}

func rankID(r int) string { return fmt.Sprintf("rank:%d", r) }

// pipe creates one in-proc connection pair honouring the Codec option.
func (s *Session) pipe(aID, bID string) (transport.Conn, transport.Conn) {
	if s.opts.Codec {
		return transport.CodecPipe(aID, bID)
	}
	return transport.Pipe(aID, bID)
}

// pipeRanks creates one inter-broker connection pair between ranks a and
// b, wrapping both endpoints in fault injectors (and registering them
// with the chaos controller) when fault injection is enabled. All
// inter-broker links — initial wiring and re-parenting alike — go
// through here, so no link escapes chaos control.
func (s *Session) pipeRanks(a, b int) (transport.Conn, transport.Conn) {
	ca, cb := s.pipe(rankID(a), rankID(b))
	if s.chaos != nil {
		return s.chaos.wrap(a, b, ca, cb)
	}
	return ca, cb
}

// pipeEventRanks is pipeRanks for an event-plane link, whose fault
// injectors Chaos.SetEventLinkFaults can also reach.
func (s *Session) pipeEventRanks(p, c int) (transport.Conn, transport.Conn) {
	ca, cb := s.pipeRanks(p, c)
	if s.chaos != nil {
		s.chaos.markEventPlane(ca, cb)
	}
	return ca, cb
}

// wireParentChild creates the two tree-plane pipes between p and c.
func (s *Session) wireParentChild(p, c int) error {
	treeP, treeC := s.pipeRanks(p, c)
	s.brokers[p].AttachConn(broker.LinkChildTree, treeP)
	s.brokers[c].AttachConn(broker.LinkParentTree, treeC)

	evP, evC := s.pipeEventRanks(p, c)
	s.brokers[p].AttachConn(broker.LinkChildEvent, evP)
	s.brokers[c].AttachConn(broker.LinkParentEvent, evC)
	// Child event links start gated at the parent; the initial resync
	// opens them (and replays anything already published). If it cannot
	// be delivered the gate would never open, so that is fatal.
	if err := evC.Send(&wire.Message{Type: wire.Control, Topic: wire.TopicResync, Seq: 0}); err != nil {
		return fmt.Errorf("session: resync %d -> %d: %w", c, p, err)
	}
	return nil
}

// Size returns the session size.
func (s *Session) Size() int { return s.opts.Size }

// Tree returns the session's tree topology.
func (s *Session) Tree() topo.Tree { return s.tree }

// Broker returns the broker at rank. The slice of brokers can grow at
// runtime, so the read is made under the session lock.
func (s *Session) Broker(rank int) *broker.Broker {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.brokers[rank]
}

// Handle attaches and returns a new handle at rank.
func (s *Session) Handle(rank int) *broker.Handle {
	return s.Broker(rank).NewHandle()
}

// Epoch returns the session's current membership epoch.
func (s *Session) Epoch() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// RankSpace returns the current rank-space size (tombstones included).
func (s *Session) RankSpace() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.view.Size()
}

// LiveRanks returns the ranks that are current members: granted a rank,
// not departed. (A killed rank is a failed member, not a departed one,
// so it stays in this list; the live module reports it down.)
func (s *Session) LiveRanks() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.view.LiveRanks()
}

// Chaos returns the session's chaos controller, or nil unless the
// session was built with Options.FaultInjection.
func (s *Session) Chaos() *Chaos { return s.chaos }

// markDead records rank as dead, reporting whether it was alive before.
func (s *Session) markDead(rank int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead[rank] {
		return false
	}
	s.dead[rank] = true
	return true
}

func (s *Session) logf(format string, args ...any) {
	s.logAt(obs.LevelNotice, format, args...)
}

// logAt records a session-lifecycle diagnostic both to the configured
// sink and into the root broker's structured log ring, so membership
// changes and chaos faults show up in flux dmesg next to the brokers'
// own records.
func (s *Session) logAt(level int, format string, args ...any) {
	if s.opts.Log != nil {
		s.opts.Log(format, args...)
	}
	s.mu.Lock()
	var root *broker.Broker
	if len(s.brokers) > 0 {
		root = s.brokers[0]
	}
	s.mu.Unlock()
	if root != nil {
		root.Logger().Log(level, "session", format, args...)
	}
}

// Kill simulates the graceful failure of the broker at rank: all of its
// links close (peers observe EOF immediately and re-parent), and its
// orphaned children re-attach to the nearest live ancestor. For a crash
// with no failure notification — peers see only silence — use
// Chaos().Crash instead. Killing an already-dead rank is a no-op.
//
// Killing rank 0 is refused: root fail-over is NOT implemented — the
// paper likewise leaves eliminating the rank-0 single point of failure
// to future work — and a session without its event sequencer and (in
// the default configuration) its KVS master cannot commit or publish
// for the rest of its life. Tearing the whole session down is what
// Close is for.
func (s *Session) Kill(rank int) error {
	if rank == 0 {
		return fmt.Errorf("session: rank 0 cannot be killed — no root fail-over: event sequencing and KVS commits would be unavailable for the rest of this session's life (use Close to end the session)")
	}
	if !s.markDead(rank) {
		return nil
	}
	s.healRing(rank)
	s.Broker(rank).Shutdown()
	return nil
}

// Alive reports whether the broker at rank has not been killed.
func (s *Session) Alive(rank int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.dead[rank]
}

// reparent re-attaches an orphaned broker to its nearest live ancestor.
// It is invoked by the broker when its parent links fail.
func (s *Session) reparent(b *broker.Broker, oldParent int) {
	s.mu.Lock()
	if s.dead[b.Rank()] {
		s.mu.Unlock()
		return
	}
	// Walk up from the dead parent to the nearest live ancestor.
	p := oldParent
	for p >= 0 && s.dead[p] {
		p = s.tree.Parent(p)
	}
	if p < 0 {
		s.mu.Unlock()
		if s.opts.Log != nil {
			s.opts.Log("session: rank %d orphaned with no live ancestor", b.Rank())
		}
		return
	}
	adopter := s.brokers[p]
	s.mu.Unlock()

	c := b.Rank()
	treeP, treeC := s.pipeRanks(p, c)
	evP, evC := s.pipeEventRanks(p, c)
	adopter.AttachConn(broker.LinkChildTree, treeP)
	adopter.AttachConn(broker.LinkChildEvent, evP)
	b.SetParent(treeC, evC, p)
	if s.opts.Log != nil {
		s.opts.Log("session: rank %d re-parented %d -> %d", c, oldParent, p)
	}
}

// Close shuts down every broker in the session.
func (s *Session) Close() {
	s.mu.Lock()
	brokers := append([]*broker.Broker(nil), s.brokers...)
	s.mu.Unlock()
	var wg sync.WaitGroup
	for r := range brokers {
		s.mu.Lock()
		deadAlready := s.dead[r]
		s.dead[r] = true
		s.mu.Unlock()
		if deadAlready {
			continue
		}
		wg.Add(1)
		go func(b *broker.Broker) {
			defer wg.Done()
			b.Shutdown()
		}(brokers[r])
	}
	wg.Wait()
}
