package session

// Elastic overlay: live rank join and graceful leave.
//
// Growth appends fresh ranks at the high end of the BFS rank space (a
// departed rank's number is never reused), wires each new broker to the
// nearest live ancestor of its computed tree parent, splices it into the
// ring, and admits it through the cmb.join handshake — all fenced by the
// membership epoch stamped into the live.join event every broker folds.
// A shrink runs the protocol in reverse: announce the leave (so peers
// fence the departing rank and the scheduler stops placing work there),
// splice the ring around it, then drain it — closing its links fails its
// in-flight requests fast with EHOSTUNREACH and re-parents its children
// through the PR-1 self-healing machinery.

import (
	"context"
	"fmt"

	"fluxgo/internal/broker"
	"fluxgo/internal/wire"
)

// joinRetries is how often a joiner retries its admission handshake
// while the overlay settles (membership event in flight, chaos faults).
const joinRetries = 5

// Grow adds n fresh ranks to the running session and returns the first
// new rank. Each new rank is announced with its own live.join event and
// its own membership epoch. Serialized against Shrink.
func (s *Session) Grow(n int) (int, error) {
	s.memberMu.Lock()
	defer s.memberMu.Unlock()
	return s.growLocked(n)
}

// hookGrow serves cmb.grow. Brokers run membership hooks on background
// goroutines their Shutdown waits for, so a hook must never block on
// memberMu: a drain holding it may be waiting on that very broker.
func (s *Session) hookGrow(n int) (int, error) {
	if !s.memberMu.TryLock() {
		return -1, fmt.Errorf("session: a membership change is in progress; retry")
	}
	defer s.memberMu.Unlock()
	return s.growLocked(n)
}

func (s *Session) growLocked(n int) (int, error) {
	if n < 1 {
		return -1, fmt.Errorf("session: grow needs n >= 1, got %d", n)
	}
	first := -1
	for i := 0; i < n; i++ {
		r, err := s.growOne()
		if err != nil {
			return first, err
		}
		if first < 0 {
			first = r
		}
	}
	return first, nil
}

// growOne admits one new rank: allocate, wire, announce, handshake.
func (s *Session) growOne() (int, error) {
	s.mu.Lock()
	if s.dead[0] {
		s.mu.Unlock()
		return -1, fmt.Errorf("session: cannot grow without the root sequencer")
	}
	r := s.view.Grow(1)
	s.epoch++
	epoch := s.epoch
	// Seed the joiner with the tombstones of *departed* ranks only: a
	// killed rank is still a member (the live module reports it down),
	// and seeding it as departed would diverge the views.
	tombs := s.view.Tombstones()
	p := s.tree.Parent(r)
	for p >= 0 && s.dead[p] {
		p = s.tree.Parent(p)
	}
	prev, next := s.ringNeighborsLocked(r)
	s.mu.Unlock()
	if p < 0 {
		return -1, fmt.Errorf("session: rank %d has no live ancestor to join through", r)
	}

	b, err := broker.New(broker.Config{
		Rank:         r,
		Size:         r + 1,
		Arity:        s.opts.Arity,
		Clock:        s.opts.Clock,
		EventHistory: s.opts.EventHistory,
		Log:          s.opts.Log,
		Reparent:     s.reparent,
		RPCTimeout:   s.opts.RPCTimeout,
		SyncInterval: s.opts.SyncInterval,
		SessionID:    s.opts.SessionID,
		LogRecords:   s.opts.LogRecords,
		Shards:       s.opts.Shards,
		Epoch:        epoch,
		Tombstones:   tombs,
		Joined:       true,
		Grow:         s.hookGrow,
		Shrink:       s.hookShrink,
		Restart:      s.hookRestart,
	})
	if err != nil {
		return -1, err
	}
	s.mu.Lock()
	s.brokers = append(s.brokers, b)
	s.mu.Unlock()

	// Tree planes toward the nearest live ancestor of the computed
	// parent. The parent-side tree link starts pending: until the join
	// handshake is served, the membership fence admits nothing but the
	// handshake itself from the new rank.
	adopter := s.Broker(p)
	treeP, treeC := s.pipeRanks(p, r)
	adopter.AttachPendingConn(broker.LinkChildTree, treeP)
	b.AttachConn(broker.LinkParentTree, treeC)
	evP, evC := s.pipeEventRanks(p, r)
	adopter.AttachConn(broker.LinkChildEvent, evP)
	b.AttachConn(broker.LinkParentEvent, evC)
	if err := evC.Send(&wire.Message{Type: wire.Control, Topic: wire.TopicResync, Seq: 0}); err != nil {
		return r, fmt.Errorf("session: resync %d -> %d: %w", r, p, err)
	}

	// Ring splice: prev-live -> r -> next-live. The old prev->next link
	// closes; requests in flight on it fail fast and are retried.
	if prev >= 0 && prev != r {
		outP, inP := s.pipeRanks(prev, r)
		s.Broker(prev).ReplaceRingOut(outP)
		b.AttachConn(broker.LinkRingIn, inP)
		outN, inN := s.pipeRanks(r, next)
		b.AttachConn(broker.LinkRingOut, outN)
		s.Broker(next).AttachConn(broker.LinkRingIn, inN)
	}

	b.Start()

	// Announce first so the parent (and everyone else) has folded rank r
	// into its view by the time traffic from r clears the fence.
	if err := s.publishMembership(wire.EventJoin, r, epoch); err != nil {
		return r, fmt.Errorf("session: announce join of rank %d: %w", r, err)
	}
	jh := b.NewHandle()
	err = jh.JoinSession(context.Background(), joinRetries)
	jh.Close()
	if err != nil {
		return r, fmt.Errorf("session: rank %d admission handshake: %w", r, err)
	}

	// Modules last: by now the rank is admitted, so module traffic is
	// not burned on stale-epoch rejections.
	for _, f := range s.opts.Modules {
		if m := f(r, r+1); m != nil {
			if err := b.LoadModule(m); err != nil {
				return r, fmt.Errorf("session: load module at rank %d: %w", r, err)
			}
		}
	}
	s.logf("session: rank %d joined at epoch %d (parent %d)", r, epoch, p)
	return r, nil
}

// Shrink gracefully drains and removes the given ranks, one epoch each.
// Serialized against Grow.
func (s *Session) Shrink(ranks []int) error {
	s.memberMu.Lock()
	defer s.memberMu.Unlock()
	return s.shrinkLocked(ranks)
}

// hookShrink serves cmb.shrink; non-blocking like hookGrow.
func (s *Session) hookShrink(ranks []int) error {
	if !s.memberMu.TryLock() {
		return fmt.Errorf("session: a membership change is in progress; retry")
	}
	defer s.memberMu.Unlock()
	return s.shrinkLocked(ranks)
}

func (s *Session) shrinkLocked(ranks []int) error {
	for _, r := range ranks {
		if err := s.shrinkOne(r); err != nil {
			return err
		}
	}
	return nil
}

// shrinkOne drains one rank: announce the leave, splice the ring around
// it, then shut it down.
func (s *Session) shrinkOne(r int) error {
	s.mu.Lock()
	var err error
	switch {
	case r == 0:
		err = fmt.Errorf("session: the root sequencer cannot leave")
	case r < 0 || r >= s.view.Size():
		err = fmt.Errorf("session: rank %d outside rank space of size %d", r, s.view.Size())
	case s.view.Left(r):
		err = fmt.Errorf("session: rank %d already departed", r)
	case s.dead[r]:
		err = fmt.Errorf("session: rank %d is dead, not drainable", r)
	}
	if err != nil {
		s.mu.Unlock()
		return err
	}
	s.epoch++
	epoch := s.epoch
	s.view.Leave(r)
	b := s.brokers[r]
	s.mu.Unlock()

	// Announce first: every broker fences rank r at the leave epoch and
	// the scheduler stops placing work on it before the drain begins.
	if err := s.publishMembership(wire.EventLeave, r, epoch); err != nil {
		return fmt.Errorf("session: announce leave of rank %d: %w", r, err)
	}

	// Splice the ring around the departing rank.
	s.spliceRingAround(r)

	// Drain: closing the links makes peers fail rank r's in-flight
	// requests fast (EHOSTUNREACH via the inflight bookkeeping) and
	// re-parents its children to their nearest live ancestor.
	s.markDead(r)
	b.Shutdown()
	s.logf("session: rank %d left at epoch %d", r, epoch)
	return nil
}

// ringNeighborsLocked returns the nearest ring neighbors of r that are
// neither departed nor dead (excluding r itself), or -1. Callers hold
// s.mu. Unlike topo.View's PrevLive/NextLive, this also skips crashed
// ranks: the ring must route around them even though they remain
// members until the failure detector or an operator drains them.
func (s *Session) ringNeighborsLocked(r int) (prev, next int) {
	size := s.view.Size()
	prev, next = -1, -1
	for i, p := 0, r; i < size; i++ {
		p = (p - 1 + size) % size
		if p == r {
			break
		}
		if s.view.Live(p) && !s.dead[p] {
			prev = p
			break
		}
	}
	for i, n := 0, r; i < size; i++ {
		n = (n + 1) % size
		if n == r {
			break
		}
		if s.view.Live(n) && !s.dead[n] {
			next = n
			break
		}
	}
	return prev, next
}

// spliceRingAround reroutes the rank-addressed ring around rank r (dead
// or departing): the nearest surviving predecessor's ring-out link is
// re-pointed at the nearest surviving successor. Safe to call more than
// once for the same rank.
func (s *Session) spliceRingAround(r int) {
	s.mu.Lock()
	prev, next := s.ringNeighborsLocked(r)
	s.mu.Unlock()
	if prev < 0 || prev == r {
		return
	}
	if next == prev {
		s.Broker(prev).DropRingOut() // sole survivor on the ring
	} else if next >= 0 {
		out, in := s.pipeRanks(prev, next)
		s.Broker(prev).ReplaceRingOut(out)
		s.Broker(next).AttachConn(broker.LinkRingIn, in)
	}
}

// healRing splices the ring around a dead rank — the failure-path
// counterpart of the graceful drain's splice, invoked by Kill and by
// the chaos controller's Sever (the failure detector acting on a silent
// crash). Serialized against Grow/Shrink so concurrent membership
// changes never fight over ring links.
func (s *Session) healRing(rank int) {
	s.memberMu.Lock()
	defer s.memberMu.Unlock()
	s.spliceRingAround(rank)
}

// publishMembership sequences an epoch-tagged membership event through
// the root.
func (s *Session) publishMembership(topic string, rank int, epoch uint32) error {
	h := s.Broker(0).NewHandle()
	defer h.Close()
	_, err := h.PublishEvent(topic, broker.MembershipEvent{Rank: rank, Epoch: epoch})
	return err
}
