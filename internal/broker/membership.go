package broker

// Membership-epoch plane.
//
// A comms session is elastic: ranks join through the cmb.join handshake
// and leave through a graceful drain. Every membership change is stamped
// with a monotonically increasing *membership epoch*, sequenced through
// the root as an epoch-tagged live.join / live.leave event, and folded
// into each broker's membership view in total order — so views converge
// exactly as the KVS does, by riding the event plane.
//
// The epoch is also carried in every wire message (codec v3). Links to
// departed ranks get a per-link fence set to the leave epoch: traffic
// still arriving from the departed rank necessarily carries an older
// epoch and is rejected at the broker boundary with ESTALE (requests) or
// dropped (anything else), always counted in cmb.epoch_rejects and
// logged. Links from not-yet-admitted joiners start "pending" and admit
// nothing but the join handshake itself.

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"fluxgo/internal/wire"
)

// MembershipEvent is the payload of the epoch-tagged live.join and
// live.leave events (wire.EventJoin / wire.EventLeave): the rank that
// joined or departed and the membership epoch its change begins.
type MembershipEvent struct {
	Rank  int    `json:"rank"`
	Epoch uint32 `json:"epoch"`
}

// joinBody is the payload of the cmb.join handshake: the first request a
// joining broker sends on its new parent-tree link.
type joinBody struct {
	Session     string `json:"session"`
	WireVersion int    `json:"wire_version"`
	Rank        int    `json:"rank"`
}

// Epoch returns the membership epoch this broker currently operates
// under. Founding brokers start at epoch 1.
func (b *Broker) Epoch() uint32 { return b.epoch.Load() }

// RankSpace returns the current rank-space size: the founding size plus
// every rank granted by growth, tombstoned (departed) ranks included.
// Rank-addressed routing bounds-checks against it.
func (b *Broker) RankSpace() int { return int(b.space.Load()) }

// LiveSize returns the number of live (non-departed) ranks in this
// broker's membership view.
func (b *Broker) LiveSize() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.view.LiveCount()
}

// Departed reports whether rank has gracefully left the session.
func (b *Broker) Departed(rank int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.view.Left(rank)
}

// LiveRanks returns the live ranks in this broker's membership view, in
// ascending order.
func (b *Broker) LiveRanks() []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.view.LiveRanks()
}

// JoinedLate reports whether this broker was added by session growth
// after the founding ranks started. Late joiners skip founding-only
// collectives (e.g. the resrc enumeration fence, whose count was fixed
// at session start).
func (b *Broker) JoinedLate() bool { return b.cfg.Joined }

// admitEpoch is the membership fence at the broker boundary: it decides
// whether a message that arrived over a link may enter routing. Loop-
// internal submissions (from == nil, which includes in-process handles'
// armed messages routed via their handle link) are never fenced.
func (b *Broker) admitEpoch(in inbound) bool {
	l, m := in.from, in.msg
	if l == nil {
		return true
	}
	if l.pending.Load() {
		if m.Type == wire.Request && m.Topic == wire.TopicJoin {
			return true
		}
		b.rejectEpoch(in, "link awaiting cmb.join admission")
		return false
	}
	if fence := l.minEpoch.Load(); fence != 0 && m.Epoch != 0 && m.Epoch < fence {
		b.rejectEpoch(in, fmt.Sprintf("epoch %d below link fence %d", m.Epoch, fence))
		return false
	}
	return true
}

// rejectEpoch disposes of a message refused by the membership fence.
// Requests fail fast back to their caller with ESTALE; everything else
// is dropped. Either way the rejection is counted in cmb.epoch_rejects
// and logged — fluxlint's errno-discipline pass enforces that epoch-
// fenced drops are never silent.
func (b *Broker) rejectEpoch(in inbound, why string) {
	b.ctr.epochRejects.Inc()
	m := in.msg
	b.log.Debugf(wire.ServiceCMB, "epoch fence: %s %q from %s rejected: %s", m.Type, m.Topic, in.from.id, why)
	if m.Type == wire.Request && m.Seq != 0 {
		m.PushRoute(in.from.id)
		b.respondErr(m, ErrnoStale, fmt.Sprintf("rank %d: stale membership epoch: %s", b.cfg.Rank, why))
	}
}

// applyMembershipLocked folds an epoch-tagged membership event into this
// broker's view. Called with b.mu held from applyEvent, so the fold is
// atomic with the event's sequencing: every broker applies the same
// changes in the same total order, which is what makes views convergent.
//
// The fold is idempotent per rank, NOT epoch-gated: a replayed or late
// event whose change is already in the view is a no-op, but an old-epoch
// event carrying a change this broker missed (lossy links under chaos)
// still folds. The epoch itself only ratchets up.
func (b *Broker) applyMembershipLocked(ev *wire.Message) {
	var body MembershipEvent
	if err := ev.UnpackJSON(&body); err != nil || body.Rank < 0 {
		b.log.Warnf(wire.ServiceCMB, "malformed membership event %q dropped: %v", ev.Topic, err)
		return
	}
	switch ev.Topic {
	case wire.EventJoin:
		b.growViewLocked(body.Rank + 1)
	case wire.EventLeave:
		b.leaveViewLocked(body.Rank, body.Epoch)
	}
	b.ratchetEpochLocked(body.Epoch)
}

// growViewLocked extends the membership view (and rank space) to cover
// size ranks. No-op if the view already does.
func (b *Broker) growViewLocked(size int) {
	if size <= b.view.Size() {
		return
	}
	b.view.Grow(size - b.view.Size())
	b.space.Store(uint32(b.view.Size()))
	b.ctr.joins.Inc()
}

// leaveViewLocked tombstones rank in the membership view and fences
// every link to it at epoch. No-op if the rank already departed.
func (b *Broker) leaveViewLocked(rank int, epoch uint32) {
	if !b.view.Leave(rank) {
		return
	}
	b.ctr.leaves.Inc()
	// Fence every link to the departed rank at the leave epoch: its
	// residual traffic is rejected at the boundary from here on. The
	// broker holding its child tree link performs the drain (the
	// link's EOF fails the in-flight requests routed over it).
	drained := false
	for _, l := range b.links {
		if linkPeerRank(l.id) == rank {
			l.minEpoch.Store(epoch)
			if l.kind == LinkChildTree {
				drained = true
			}
		}
	}
	if drained {
		b.ctr.drains.Inc()
	}
}

// ratchetEpochLocked raises the broker's membership epoch to epoch if
// it is newer.
func (b *Broker) ratchetEpochLocked(epoch uint32) {
	if epoch > b.epoch.Load() {
		b.epoch.Store(epoch)
		b.epochGauge.Set(int64(epoch))
	}
}

// startMembershipSync launches membership anti-entropy off-loop, at
// most one sync in flight. It is triggered by the two signs this broker
// may hold a stale view: an event-sequence gap (an event carrying a
// membership change may have been lost with the gap), and a wire header
// carrying a newer epoch than ours. The root never syncs — every
// membership change sequences through it, so its view is authoritative.
func (b *Broker) startMembershipSync() {
	if b.cfg.Rank == 0 || !b.syncing.CompareAndSwap(false, true) {
		return
	}
	b.bg.Add(1)
	go func() {
		defer b.bg.Done()
		defer b.syncing.Store(false)
		b.syncMembership()
	}()
}

// runAntiEntropy is the periodic arm of membership anti-entropy: every
// SyncInterval the broker pulls its parent's view, whether or not a
// staleness trigger fired. The triggers alone are not enough — a broker
// can ratchet to the current epoch off a heartbeat while a lost leave
// event keeps a rank alive in its view forever, and with the epochs
// equal no later message re-triggers a sync. The periodic pull closes
// that hole: the root's view walks down one tree level per tick.
func (b *Broker) runAntiEntropy() {
	defer b.bg.Done()
	for {
		t := b.cfg.Clock.NewTimer(b.cfg.SyncInterval)
		select {
		case <-b.done:
			t.Stop()
			return
		case <-t.C():
		}
		b.startMembershipSync()
	}
}

// syncMembership pulls the parent's membership view (cmb.info carries
// the epoch, rank space, and tombstones) and folds it idempotently. One
// tree hop, not a route to the root: the self-healing machinery keeps
// the parent chain live, while ring and rank-addressed routes may pass
// through crashed ranks. A stale parent is fine — events forwarded down
// the tree keep their root epoch stamp, so a still-stale child keeps
// re-triggering until the fresh view has walked down to it; the root is
// the fixpoint. A failed pull is only logged for the same reason:
// convergence needs no retry loop here.
func (b *Broker) syncMembership() {
	h := b.NewHandle()
	defer h.Close()
	resp, err := h.RPC(wire.TopicInfo, wire.NodeidUpstream, nil)
	if err != nil {
		b.log.Debugf(wire.ServiceCMB, "membership sync: %v", err)
		return
	}
	var body struct {
		Epoch      uint32 `json:"epoch"`
		Size       int    `json:"size"`
		Tombstones []int  `json:"tombstones"`
	}
	if err := resp.UnpackJSON(&body); err != nil {
		b.log.Warnf(wire.ServiceCMB, "membership sync: bad info response: %v", err)
		return
	}
	b.mu.Lock()
	b.growViewLocked(body.Size)
	for _, r := range body.Tombstones {
		b.leaveViewLocked(r, body.Epoch)
	}
	b.ratchetEpochLocked(body.Epoch)
	b.mu.Unlock()
}

// linkPeerRank extracts the peer rank from an inter-broker link id
// ("t:rank:5" -> 5), or -1 for client and handle links.
func linkPeerRank(id string) int {
	i := strings.Index(id, ":")
	if i < 0 {
		return -1
	}
	rest := strings.TrimPrefix(id[i+1:], "rank:")
	if rest == id[i+1:] {
		return -1
	}
	r, err := strconv.Atoi(rest)
	if err != nil {
		return -1
	}
	return r
}

// serveJoin handles a cmb.join handshake arriving (over a pending child
// tree link) at the joiner's chosen parent. It validates the session id,
// wire version, and proposed rank against the link the request actually
// arrived on, then admits the link and replies with the current epoch,
// rank space, and event sequence so the joiner knows where it stands.
func (b *Broker) serveJoin(m *wire.Message) {
	var body joinBody
	if err := m.UnpackJSON(&body); err != nil {
		b.respondErr(m, ErrnoInval, err.Error())
		return
	}
	if body.WireVersion != wire.Version() {
		b.respondErr(m, ErrnoProto,
			fmt.Sprintf("cmb: join speaks wire version %d, this session speaks %d", body.WireVersion, wire.Version()))
		return
	}
	if body.Session != b.cfg.SessionID {
		b.respondErr(m, ErrnoProto,
			fmt.Sprintf("cmb: join for session %q, this is session %q", body.Session, b.cfg.SessionID))
		return
	}
	if len(m.Route) == 0 {
		b.respondErr(m, ErrnoInval, "cmb: join must arrive over a link")
		return
	}
	id := m.Route[len(m.Route)-1]
	if linkPeerRank(id) != body.Rank {
		b.respondErr(m, ErrnoProto,
			fmt.Sprintf("cmb: join claims rank %d but arrived on link %s", body.Rank, id))
		return
	}
	b.mu.Lock()
	l := b.links[id]
	tombstoned := b.view.Left(body.Rank)
	live := b.view.LiveCount()
	b.mu.Unlock()
	if tombstoned {
		b.respondErr(m, ErrnoStale,
			fmt.Sprintf("cmb: rank %d departed at an earlier epoch and cannot rejoin", body.Rank))
		return
	}
	if l == nil || l.kind != LinkChildTree {
		b.respondErr(m, ErrnoInval, fmt.Sprintf("cmb: join link %s is not a child tree link", id))
		return
	}
	l.pending.Store(false)
	resp, err := wire.NewResponse(m, map[string]any{
		"epoch":          b.epoch.Load(),
		"size":           b.RankSpace(),
		"live":           live,
		"last_event_seq": b.LastEventSeq(),
	})
	if err == nil {
		b.routeResponse(inbound{msg: resp})
	}
}

// serveGrow handles cmb.grow by invoking the session's growth hook.
// Growing publishes membership events and runs the join handshake, both
// of which need this broker's loop, so the hook runs off-loop (like
// rmmod); Shutdown waits for it through b.bg.
func (b *Broker) serveGrow(m *wire.Message) {
	grow := b.cfg.Grow
	if grow == nil {
		b.respondErr(m, ErrnoNoSys, "cmb: no membership hooks installed at this broker")
		return
	}
	var body struct {
		N int `json:"n"`
	}
	if err := m.UnpackJSON(&body); err != nil || body.N < 1 {
		b.respondErr(m, ErrnoInval, "cmb: grow needs n >= 1")
		return
	}
	b.bg.Add(1)
	go func() {
		defer b.bg.Done()
		first, err := grow(body.N)
		if err != nil {
			b.respondErr(m, ErrnoInval, err.Error())
			return
		}
		resp, rerr := wire.NewResponse(m, map[string]any{
			"first": first,
			"n":     body.N,
			"epoch": b.epoch.Load(),
			"size":  b.RankSpace(),
		})
		if rerr == nil {
			b.routeResponse(inbound{msg: resp})
		}
	}()
}

// serveShrink handles cmb.shrink by invoking the session's drain hook,
// off-loop for the same reason as serveGrow.
func (b *Broker) serveShrink(m *wire.Message) {
	shrink := b.cfg.Shrink
	if shrink == nil {
		b.respondErr(m, ErrnoNoSys, "cmb: no membership hooks installed at this broker")
		return
	}
	var body struct {
		Ranks []int `json:"ranks"`
	}
	if err := m.UnpackJSON(&body); err != nil || len(body.Ranks) == 0 {
		b.respondErr(m, ErrnoInval, "cmb: shrink needs at least one rank")
		return
	}
	for _, r := range body.Ranks {
		// Draining this rank waits for this broker to shut down, which in
		// turn waits for this very handler: refuse instead of deadlocking.
		if r == b.cfg.Rank {
			b.respondErr(m, ErrnoInval,
				fmt.Sprintf("cmb: rank %d cannot drain itself; send cmb.shrink to another rank", r))
			return
		}
	}
	b.bg.Add(1)
	go func() {
		defer b.bg.Done()
		if err := shrink(body.Ranks); err != nil {
			b.respondErr(m, ErrnoInval, err.Error())
			return
		}
		resp, rerr := wire.NewResponse(m, map[string]any{
			"ranks": body.Ranks,
			"epoch": b.epoch.Load(),
			"size":  b.RankSpace(),
		})
		if rerr == nil {
			b.routeResponse(inbound{msg: resp})
		}
	}()
}

// serveRestart handles cmb.restart by invoking the session's restart
// hook, off-loop for the same reason as serveGrow: bringing a rank back
// publishes a membership event and runs the join handshake, both of
// which need this broker's loop.
func (b *Broker) serveRestart(m *wire.Message) {
	restart := b.cfg.Restart
	if restart == nil {
		b.respondErr(m, ErrnoNoSys, "cmb: no membership hooks installed at this broker")
		return
	}
	var body struct {
		Rank int `json:"rank"`
	}
	if err := m.UnpackJSON(&body); err != nil || body.Rank < 1 {
		b.respondErr(m, ErrnoInval, "cmb: restart needs rank >= 1")
		return
	}
	b.bg.Add(1)
	go func() {
		defer b.bg.Done()
		if err := restart(body.Rank); err != nil {
			b.respondErr(m, ErrnoInval, err.Error())
			return
		}
		resp, rerr := wire.NewResponse(m, map[string]any{
			"rank":  body.Rank,
			"epoch": b.epoch.Load(),
			"size":  b.RankSpace(),
		})
		if rerr == nil {
			b.routeResponse(inbound{msg: resp})
		}
	}()
}

// JoinSession runs the cmb.join admission handshake for this handle's
// broker: one upstream RPC to the parent the session wired it to,
// retried while the overlay settles. Until it succeeds the parent's
// fence admits nothing else from this broker.
func (h *Handle) JoinSession(ctx context.Context, retries int) error {
	body := joinBody{
		Session:     h.b.cfg.SessionID,
		WireVersion: wire.Version(),
		Rank:        h.b.cfg.Rank,
	}
	_, err := h.RPCWithOptions(ctx, wire.TopicJoin, wire.NodeidUpstream, body, RPCOptions{Retries: retries})
	return err
}
