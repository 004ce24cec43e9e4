package session

// Crash-restart recovery: bringing a killed or crashed rank back.
//
// A restart is a join in disguise. The rank keeps its number (it never
// departed, so it is not tombstoned), but everything else runs the
// growth protocol: a fresh broker is built seeded with the current
// epoch and tombstone set, wired to the nearest live ancestor of its
// tree parent with the parent-side link pending, spliced back into the
// ring, announced with an epoch-tagged live.join event, and admitted
// through the cmb.join handshake. Modules reload last — a KVS instance
// configured with a durable tier cold-loads its CAS cache and (for a
// shard master) its root commit from disk, which is what makes the
// restart lossless for every commit acknowledged before the crash.

import (
	"context"
	"fmt"

	"fluxgo/internal/broker"
	"fluxgo/internal/wire"
)

// Restart brings a previously killed or crashed rank back into the
// session. Serialized against Grow/Shrink; one membership epoch.
func (s *Session) Restart(rank int) error {
	s.memberMu.Lock()
	defer s.memberMu.Unlock()
	return s.restartLocked(rank)
}

// hookRestart serves cmb.restart; non-blocking like hookGrow, because
// broker membership hooks run on goroutines Shutdown waits for.
func (s *Session) hookRestart(rank int) error {
	if !s.memberMu.TryLock() {
		return fmt.Errorf("session: a membership change is in progress; retry")
	}
	defer s.memberMu.Unlock()
	return s.restartLocked(rank)
}

func (s *Session) restartLocked(r int) error {
	s.mu.Lock()
	var err error
	switch {
	case r == 0:
		err = fmt.Errorf("session: rank 0 cannot be restarted — it cannot die short of session teardown (no root fail-over)")
	case r < 0 || r >= s.view.Size():
		err = fmt.Errorf("session: rank %d outside rank space of size %d", r, s.view.Size())
	case s.view.Left(r):
		err = fmt.Errorf("session: rank %d departed at an earlier epoch and cannot rejoin", r)
	case !s.dead[r]:
		err = fmt.Errorf("session: rank %d is alive, nothing to restart", r)
	case s.dead[0]:
		err = fmt.Errorf("session: cannot restart without the root sequencer")
	}
	if err != nil {
		s.mu.Unlock()
		return err
	}
	s.epoch++
	epoch := s.epoch
	tombs := s.view.Tombstones()
	size := s.view.Size()
	p := s.tree.Parent(r)
	for p >= 0 && s.dead[p] {
		p = s.tree.Parent(p)
	}
	prev, next := s.ringNeighborsLocked(r)
	s.mu.Unlock()
	if p < 0 {
		return fmt.Errorf("session: rank %d has no live ancestor to rejoin through", r)
	}

	// Scrub chaos state from the previous incarnation: the old
	// blackholed endpoints leave the registry (new links get fresh
	// injectors) and the rank's crashed storage comes back readable —
	// truncated to its last fsync watermark, exactly what a real
	// machine reboot would find.
	if s.chaos != nil {
		s.chaos.forget(r)
		s.chaos.reviveStorage(r)
	}

	b, err := broker.New(broker.Config{
		Rank:         r,
		Size:         size,
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
		return err
	}
	// From here the rank is fair game again: reparenting orphans may
	// pick it as an adopter, so the broker replaces the dead one and the
	// dead mark clears in the same critical section.
	s.mu.Lock()
	s.brokers[r] = b
	delete(s.dead, r)
	s.mu.Unlock()

	// A failure past this point must not leave the rank half-joined
	// (alive but unadmitted, so unreachable and un-restartable): fail
	// re-kills the new incarnation so the restart can simply be retried
	// — e.g. once the link faults that broke the handshake heal.
	fail := func(err error) error {
		s.markDead(r)
		s.spliceRingAround(r)
		b.Shutdown()
		return err
	}

	// Tree planes toward the nearest live ancestor of the computed
	// parent, parent side pending until the join handshake clears.
	adopter := s.Broker(p)
	treeP, treeC := s.pipeRanks(p, r)
	adopter.AttachPendingConn(broker.LinkChildTree, treeP)
	b.AttachConn(broker.LinkParentTree, treeC)
	evP, evC := s.pipeEventRanks(p, r)
	adopter.AttachConn(broker.LinkChildEvent, evP)
	b.AttachConn(broker.LinkParentEvent, evC)
	if err := evC.Send(&wire.Message{Type: wire.Control, Topic: wire.TopicResync, Seq: 0}); err != nil {
		return fail(fmt.Errorf("session: resync %d -> %d: %w", r, p, err))
	}

	// Ring splice: prev-live -> r -> next-live, undoing the heal that
	// routed around the dead rank.
	if prev >= 0 && prev != r {
		outP, inP := s.pipeRanks(prev, r)
		s.Broker(prev).ReplaceRingOut(outP)
		b.AttachConn(broker.LinkRingIn, inP)
		outN, inN := s.pipeRanks(r, next)
		b.AttachConn(broker.LinkRingOut, outN)
		s.Broker(next).AttachConn(broker.LinkRingIn, inN)
	}

	b.Start()

	// Announce first: the live.join event revives the rank in every
	// membership view (and the live module's down set) before traffic
	// from it clears the fence.
	if err := s.publishMembership(wire.EventJoin, r, epoch); err != nil {
		return fail(fmt.Errorf("session: announce restart of rank %d: %w", r, err))
	}
	jh := b.NewHandle()
	err = jh.JoinSession(context.Background(), joinRetries)
	jh.Close()
	if err != nil {
		return fail(fmt.Errorf("session: rank %d readmission handshake: %w", r, err))
	}

	// Modules last, as in growth — and this is where durable state comes
	// back: a KVS instance with a disk tier replays its pack + WAL into
	// the cache, and a shard master resumes from its persisted root.
	for _, f := range s.opts.Modules {
		if m := f(r, size); m != nil {
			if err := b.LoadModule(m); err != nil {
				return fail(fmt.Errorf("session: load module at rank %d: %w", r, err))
			}
		}
	}
	s.logf("session: rank %d restarted at epoch %d (parent %d)", r, epoch, p)
	return nil
}
