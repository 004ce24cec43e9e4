package session

import (
	"fmt"

	"fluxgo/internal/cas"
	"fluxgo/internal/obs"
	"fluxgo/internal/transport"
)

// Chaos is the session-level fault-injection controller, available when
// the session is built with Options.FaultInjection. It owns a registry
// of every inter-broker link endpoint, wrapped in transport.Faulty, and
// exposes the failure vocabulary of the chaos tests:
//
//   - per-link loss, latency, duplication (SetLinkFaults, or
//     SetEventLinkFaults for the event plane alone)
//   - network partitions between rank sets (Partition / Heal)
//   - silent rank crashes, where peers observe no EOF (Crash), with
//     failure detection modelled separately (Sever)
//
// Faults are directional: SetLinkFaults(a, b, f) shapes only the a→b
// traffic. All randomized decisions derive from the session's FaultSeed,
// so a failing chaos run replays exactly from its seed.
type Chaos struct {
	s *Session

	// endpoints[owner][peer] holds the fault injectors carrying traffic
	// from owner toward peer (tree request, tree event, and ring planes
	// all register here). Guarded by s.mu: registration happens during
	// wiring and re-parenting, control during tests.
	endpoints map[int]map[int][]*transport.Faulty
	// eventPlane marks the endpoints of event-plane links, the ones
	// SetEventLinkFaults shapes. An endpoint leaves it when it leaves
	// endpoints. Guarded by s.mu.
	eventPlane map[*transport.Faulty]bool

	// storage[rank] is the simulated-disk fault injector backing rank's
	// durable state, when the test registered one (RegisterStorage).
	// Crash(rank) crashes it along with the broker — losing everything
	// past the last fsync watermark — and Session.Restart revives it
	// before the cold reload. Guarded by s.mu.
	storage map[int]*cas.FaultyFS

	seed     int64
	seedStep int64
}

func newChaos(s *Session, seed int64) *Chaos {
	return &Chaos{
		s:          s,
		endpoints:  map[int]map[int][]*transport.Faulty{},
		eventPlane: map[*transport.Faulty]bool{},
		storage:    map[int]*cas.FaultyFS{},
		seed:       seed,
	}
}

// RegisterStorage associates a simulated-disk fault injector with rank,
// so Crash(rank) also crashes the rank's storage (truncating unsynced
// writes) and Session.Restart(rank) revives it for the cold reload.
func (c *Chaos) RegisterStorage(rank int, fs *cas.FaultyFS) {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	c.storage[rank] = fs
}

// Storage returns the fault injector registered for rank's durable
// state, or nil.
func (c *Chaos) Storage(rank int) *cas.FaultyFS {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	return c.storage[rank]
}

// SetStorageFaults shapes the I/O-level fault rates (torn writes, fsync
// failures, short reads, bit flips) of rank's registered storage. A
// no-op when no storage is registered for rank.
func (c *Chaos) SetStorageFaults(rank int, f cas.FSFaults) {
	if fs := c.Storage(rank); fs != nil {
		fs.SetFaults(f)
	}
}

// reviveStorage brings rank's crashed storage back for a restart.
func (c *Chaos) reviveStorage(rank int) {
	if fs := c.Storage(rank); fs != nil {
		fs.Revive()
	}
}

// wrap installs fault injectors on both endpoints of a link between
// ranks a and b and registers them. Called under no lock from session
// wiring paths.
func (c *Chaos) wrap(a, b int, ca, cb transport.Conn) (transport.Conn, transport.Conn) {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	fa := transport.NewFaulty(ca, c.nextSeedLocked())
	fb := transport.NewFaulty(cb, c.nextSeedLocked())
	c.registerLocked(a, b, fa)
	c.registerLocked(b, a, fb)
	return fa, fb
}

// nextSeedLocked derives the next per-endpoint RNG seed. Caller holds s.mu.
func (c *Chaos) nextSeedLocked() int64 {
	c.seedStep++
	return c.seed*1_000_003 + c.seedStep
}

func (c *Chaos) registerLocked(owner, peer int, f *transport.Faulty) {
	m := c.endpoints[owner]
	if m == nil {
		m = map[int][]*transport.Faulty{}
		c.endpoints[owner] = m
	}
	m[peer] = append(m[peer], f)
}

// SetLinkFaults applies f to all traffic flowing from rank `from` toward
// rank `to` (every overlay plane sharing that rank pair). Passing the
// zero Faults heals the direction.
func (c *Chaos) SetLinkFaults(from, to int, f transport.Faults) {
	c.s.mu.Lock()
	eps := append([]*transport.Faulty(nil), c.endpoints[from][to]...)
	c.s.mu.Unlock()
	for _, ep := range eps {
		ep.SetFaults(f)
	}
}

// SetEventLinkFaults is SetLinkFaults for the event plane alone: the
// from→to event link gets f, the tree and ring links between the pair
// are left as they are. A delayed event link lets a rank's KVS root lag
// behind the responses it receives.
func (c *Chaos) SetEventLinkFaults(from, to int, f transport.Faults) {
	c.s.mu.Lock()
	var eps []*transport.Faulty
	for _, ep := range c.endpoints[from][to] {
		if c.eventPlane[ep] {
			eps = append(eps, ep)
		}
	}
	c.s.mu.Unlock()
	for _, ep := range eps {
		ep.SetFaults(f)
	}
}

// markEventPlane records two endpoints made by wrap as an event link's.
func (c *Chaos) markEventPlane(ca, cb transport.Conn) {
	c.s.mu.Lock()
	c.eventPlane[ca.(*transport.Faulty)] = true
	c.eventPlane[cb.(*transport.Faulty)] = true
	c.s.mu.Unlock()
}

// unmarkLocked drops deregistered endpoints from eventPlane. Caller
// holds s.mu.
func (c *Chaos) unmarkLocked(eps []*transport.Faulty) {
	for _, ep := range eps {
		delete(c.eventPlane, ep)
	}
}

// SetAllFaults applies f to every link direction between live ranks —
// background noise for soak tests (e.g. 1% loss everywhere).
func (c *Chaos) SetAllFaults(f transport.Faults) {
	c.s.mu.Lock()
	var eps []*transport.Faulty
	for owner, peers := range c.endpoints {
		if c.s.dead[owner] {
			continue
		}
		for peer, list := range peers {
			if c.s.dead[peer] {
				continue
			}
			eps = append(eps, list...)
		}
	}
	c.s.mu.Unlock()
	for _, ep := range eps {
		ep.SetFaults(f)
	}
}

// Partition blackholes every link crossing the cut between group and the
// rest of the session, in both directions: the two sides observe mutual
// silence, exactly like a switch failure — no EOF, no error, nothing.
// Heal (or SetLinkFaults per direction) removes it.
func (c *Chaos) Partition(group ...int) {
	in := map[int]bool{}
	for _, r := range group {
		in[r] = true
	}
	c.s.mu.Lock()
	var eps []*transport.Faulty
	for owner, peers := range c.endpoints {
		for peer, list := range peers {
			if in[owner] != in[peer] {
				eps = append(eps, list...)
			}
		}
	}
	c.s.mu.Unlock()
	for _, ep := range eps {
		ep.SetFaults(transport.Faults{Blackhole: true})
	}
}

// Heal clears every fault on every link between live ranks. Links that
// touch crashed ranks stay blackholed: a dead peer does not come back.
func (c *Chaos) Heal() {
	c.SetAllFaults(transport.Faults{})
}

// Crash kills the broker at rank the hard way: every link touching it is
// blackholed first — in both directions — so its peers observe pure
// silence rather than the EOFs a graceful Kill produces; the rank's
// registered storage (if any) crashes with it, truncating everything
// past its last fsync watermark; and then the broker stops. Until Sever
// models failure detection, nothing in the session learns of the death:
// in-flight RPCs through the rank are bounded only by their deadlines,
// which is precisely the window the no-hang guarantee is about.
// Crashing an already-dead rank is a no-op.
//
// Crashing rank 0 is refused for the same reason Session.Kill refuses
// it: there is no root fail-over, so the session would be left without
// its event sequencer for the rest of its life.
func (c *Chaos) Crash(rank int) error {
	if rank == 0 {
		return fmt.Errorf("session: rank 0 cannot be crashed — no root fail-over (use Close to end the session)")
	}
	if !c.s.markDead(rank) {
		return nil
	}
	c.s.mu.Lock()
	var eps []*transport.Faulty
	for _, list := range c.endpoints[rank] {
		eps = append(eps, list...)
	}
	for owner, peers := range c.endpoints {
		if owner == rank {
			continue
		}
		eps = append(eps, peers[rank]...)
	}
	fs := c.storage[rank]
	c.s.mu.Unlock()
	for _, ep := range eps {
		ep.SetFaults(transport.Faults{Blackhole: true})
	}
	if fs != nil {
		if err := fs.Crash(); err != nil {
			c.s.logAt(obs.LevelWarn, "session: chaos: rank %d storage crash: %v", rank, err)
		}
	}
	c.s.logAt(obs.LevelWarn, "session: chaos: rank %d crashed silently", rank)
	c.s.flightDump(fmt.Sprintf("crash-rank%d", rank))
	c.s.Broker(rank).Shutdown()
	return nil
}

// Sever models the failure detector noticing a crashed rank: the peers'
// endpoints toward it are closed, surfacing EOF so their brokers run
// link-down cleanup — failing in-flight routed RPCs with EHOSTUNREACH
// and triggering re-parenting of the crashed rank's children.
func (c *Chaos) Sever(rank int) {
	c.s.mu.Lock()
	var eps []*transport.Faulty
	for owner, peers := range c.endpoints {
		if owner == rank {
			continue
		}
		eps = append(eps, peers[rank]...)
		delete(peers, rank)
	}
	for _, list := range c.endpoints[rank] {
		c.unmarkLocked(list)
	}
	delete(c.endpoints, rank)
	c.unmarkLocked(eps)
	c.s.mu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
	c.s.healRing(rank)
	c.s.logAt(obs.LevelWarn, "session: chaos: rank %d severed (failure detected)", rank)
	c.s.flightDump(fmt.Sprintf("sever-rank%d", rank))
}

// CrashAndSever is Crash immediately followed by Sever: a crash whose
// detection is instantaneous. Most tests separate the two to exercise
// the silent window in between.
func (c *Chaos) CrashAndSever(rank int) error {
	if err := c.Crash(rank); err != nil {
		return err
	}
	c.Sever(rank)
	return nil
}

// forget closes and deregisters every fault-injected endpoint touching
// rank, in both directions. Session.Restart calls it before re-wiring:
// a crashed rank's old blackholed endpoints must not linger in the
// registry or later blanket fault operations would target dead conns.
func (c *Chaos) forget(rank int) {
	c.s.mu.Lock()
	var eps []*transport.Faulty
	for _, list := range c.endpoints[rank] {
		eps = append(eps, list...)
	}
	delete(c.endpoints, rank)
	for owner, peers := range c.endpoints {
		if owner == rank {
			continue
		}
		eps = append(eps, peers[rank]...)
		delete(peers, rank)
	}
	c.unmarkLocked(eps)
	c.s.mu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
}
