package broker

import (
	"strconv"

	"fluxgo/internal/transport"
)

// Recipient table.
//
// Who receives an event depends only on its topic and on the broker's
// subscription state: the loaded modules and their subscriptions, the
// local handles' and clients' subscriptions, and which child event
// links are attached and ungated. That state changes rarely; events
// arrive constantly. So applyEventLocked does not scan every module,
// link and handle per event: it looks the topic up in a table built by
// one such scan and kept until the state changes.
//
// Every site that changes the state bumps recipGen after the change:
// the link and module registry republish (publishLinksLocked, which
// also covers attaching a gated child event link, and
// publishModulesLocked), Handle.Subscribe and Subscription.Close, a
// client's cmb.sub and cmb.unsub, and replayEvents' ungate. A lookup
// that finds the generation moved clears the table first. The lookup
// reads the generation before it scans, so a change that lands during
// the scan leaves the entry tagged with the old generation and the next
// event rebuilds it; a change that landed before the read is seen by
// the scan (registry and client subscriptions change under mu, which
// the lookup holds; handle subscriptions under the handle's mu, which
// the scan takes).

// maxRecipientTopics bounds the recipient table. Event topics are a
// small fixed set (heartbeat, setroot, membership, job state), so the
// bound only matters for a publisher that invents topics: the table is
// then cleared and refilled rather than grown.
const maxRecipientTopics = 256

// eventRecipients is who receives events on one topic. Delivery order
// is the field order: modules, then local handles and clients, then
// children (event->request causality, DESIGN.md §14). An entry is
// immutable once built.
type eventRecipients struct {
	mods         []*moduleRunner
	local        []*link
	down         []*link
	frameTargets int    // links in down that take shared frames
	span         string // the event span's Link: "down:<n> local:<m>"
}

// recipientsLocked returns topic's recipients under the current
// subscription state, scanning only when the table holds no entry for
// this generation. Called with evMu and mu held.
func (b *Broker) recipientsLocked(topic string) *eventRecipients {
	gen := b.recipGen.Load()
	if gen != b.recipAt {
		clear(b.recipTab)
		b.recipAt = gen
	} else if r, ok := b.recipTab[topic]; ok {
		return r
	} else if len(b.recipTab) >= maxRecipientTopics {
		clear(b.recipTab)
	}
	r := b.scanRecipientsLocked(topic)
	b.recipTab[topic] = r
	b.ctr.recipientRebuilds.Inc()
	return r
}

// scanRecipientsLocked builds topic's recipient entry from the
// registries. Called with mu held.
func (b *Broker) scanRecipientsLocked(topic string) *eventRecipients {
	r := &eventRecipients{}
	for _, m := range b.modules {
		for _, p := range m.subs {
			if matchTopic(p, topic) {
				r.mods = append(r.mods, m)
				break
			}
		}
	}
	for _, l := range b.links {
		switch l.kind {
		case linkHandle:
			if l.h.wantsEvent(topic) {
				r.local = append(r.local, l)
			}
		case LinkClient:
			for _, p := range l.subs {
				if matchTopic(p, topic) {
					r.local = append(r.local, l)
					break
				}
			}
		case LinkChildEvent:
			if !l.gated {
				r.down = append(r.down, l)
				if _, ok := l.conn.(transport.FrameSender); ok {
					r.frameTargets++
				}
			}
		}
	}
	r.span = "down:" + strconv.Itoa(len(r.down)) + " local:" + strconv.Itoa(len(r.mods)+len(r.local))
	return r
}

// invalidateRecipients marks the recipient table stale. Call it after
// the change that made it so.
func (b *Broker) invalidateRecipients() { b.recipGen.Add(1) }
