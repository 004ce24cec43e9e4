package broker

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"fluxgo/internal/obs"
	"fluxgo/internal/transport"
	"fluxgo/internal/wire"
)

// eventRec is one entry of the event history cache: the immutable event
// message plus, when at least one child link can ship raw frames, its
// encode-once wire frame shared (refcounted) by every frame-capable
// consumer — live fan-out and resync replay alike.
type eventRec struct {
	msg   *wire.Message
	frame *wire.Frame // nil when no frame-capable child has seen it
}

// Event plane.
//
// The root broker assigns every published event a monotone sequence
// number and fans it out over the event-plane tree. Reliable FIFO links
// preserve the total order at every rank, which is what gives the KVS
// its monotonic-read consistency "for free" (paper, Sec. IV-B). Brokers
// cache recent events so a re-parented child can resync without gaps.

// pubBody is the payload of a cmb.pub request: the event to publish.
// Brokers send it binary (Handle.PublishEvent); this JSON form is what
// external tools such as `flux event pub` send.
type pubBody struct {
	Topic   string          `json:"topic"`
	Payload json.RawMessage `json:"payload"`
}

// builtinRequest serves the broker's own "cmb" service. It returns false
// when the method must continue upstream instead (publication below the
// root). Handlers run on the broker loop and must not block.
func (b *Broker) builtinRequest(m *wire.Message) bool {
	switch m.Method() {
	case "pub":
		if !b.IsRoot() {
			return false // forward toward the root, which sequences it
		}
		var body pubBody
		if r, ok := wire.NewBinReader(m.Payload); ok {
			body.Topic = r.String()
			body.Payload = r.Bytes()
			if err := r.Err(); err != nil {
				b.respondErr(m, ErrnoInval, err.Error())
				return true
			}
		} else if err := m.UnpackJSON(&body); err != nil {
			b.respondErr(m, ErrnoInval, err.Error())
			return true
		}
		seq := b.sequenceEvent(body.Topic, body.Payload, m.TraceID, m.Hops)
		if m.Seq != 0 {
			resp, err := wire.NewResponse(m, map[string]uint64{"seq": seq})
			if err == nil {
				b.routeResponse(inbound{msg: resp})
			}
		}
		return true
	case "ping":
		// Empty pings — the liveness probe, and the hot routing
		// benchmark — skip the generic map round-trip: the reply body is
		// appended directly, no json.Marshal, no map allocation.
		if len(m.Payload) == 0 || string(m.Payload) == "{}" || string(m.Payload) == "null" {
			var buf [40]byte
			raw := append(buf[:0], `{"rank":`...)
			raw = strconv.AppendInt(raw, int64(b.cfg.Rank), 10)
			raw = append(raw, `,"hops":`...)
			raw = strconv.AppendInt(raw, int64(len(m.Route)), 10)
			raw = append(raw, '}')
			resp, err := wire.NewResponse(m, wire.RawBody(raw))
			if err == nil {
				b.routeResponse(inbound{msg: resp})
			}
			return true
		}
		var body map[string]any
		if err := m.UnpackJSON(&body); err != nil {
			body = map[string]any{}
		}
		body["rank"] = b.cfg.Rank
		body["hops"] = len(m.Route)
		resp, err := wire.NewResponse(m, body)
		if err != nil {
			b.respondErr(m, ErrnoInval, err.Error())
			return true
		}
		b.routeResponse(inbound{msg: resp})
		return true
	case "info":
		b.mu.Lock()
		tombs := b.view.Tombstones()
		b.mu.Unlock()
		resp, err := wire.NewResponse(m, map[string]any{
			"rank":       b.cfg.Rank,
			"size":       b.RankSpace(),
			"live":       b.LiveSize(),
			"epoch":      int(b.Epoch()),
			"arity":      b.cfg.Arity,
			"parent":     b.ParentRank(),
			"tombstones": tombs,
		})
		if err == nil {
			b.routeResponse(inbound{msg: resp})
		}
		return true
	case "stats":
		st := b.Stats()
		resp, err := wire.NewResponse(m, map[string]any{
			"rank":              b.cfg.Rank,
			"requests_routed":   st.RequestsRouted,
			"requests_upstream": st.RequestsUpstream,
			"requests_ring":     st.RequestsRing,
			"responses_routed":  st.ResponsesRouted,
			"events_published":  st.EventsPublished,
			"events_applied":    st.EventsApplied,
			"events_duplicate":  st.EventsDuplicate,
			"event_seq_gaps":    st.EventSeqGaps,
			"reparents":         st.Reparents,
			"send_errors":       st.SendErrors,
			"inflight_failed":   st.InflightFailed,
			"epoch":             b.Epoch(),
			"live_size":         b.LiveSize(),
			"joins":             st.Joins,
			"leaves":            st.Leaves,
			"drains":            st.Drains,
			"epoch_rejects":     st.EpochRejects,
			"last_event_seq":    b.LastEventSeq(),
			"trace_spans":       b.traces.Len(),
			"metrics":           b.metrics.Snapshot(),
		})
		if err == nil {
			b.routeResponse(inbound{msg: resp})
		}
		return true
	case "trace":
		b.serveTrace(m)
		return true
	case "dmesg":
		b.serveDmesg(m)
		return true
	case "logfwd":
		b.serveLogFwd(m)
		return true
	case "dump":
		b.serveDump(m)
		return true
	case "rmmod":
		var body struct {
			Name string `json:"name"`
		}
		if err := m.UnpackJSON(&body); err != nil || body.Name == "" {
			b.respondErr(m, ErrnoInval, "cmb: rmmod needs a module name")
			return true
		}
		// Unloading drains the module and may need the broker loop to
		// route its in-flight responses, so it must not run on the loop.
		// Shutdown waits for it through b.bg.
		b.bg.Add(1)
		go func() {
			defer b.bg.Done()
			if err := b.UnloadModule(body.Name); err != nil {
				b.respondErr(m, ErrnoNoEnt, err.Error())
				return
			}
			if resp, err := wire.NewResponse(m, map[string]string{"unloaded": body.Name}); err == nil {
				b.routeResponse(inbound{msg: resp})
			}
		}()
		return true
	case "join":
		b.serveJoin(m)
		return true
	case "grow":
		b.serveGrow(m)
		return true
	case "shrink":
		b.serveShrink(m)
		return true
	case "restart":
		b.serveRestart(m)
		return true
	case "lsmod":
		b.mu.Lock()
		names := make([]string, 0, len(b.modules))
		for name := range b.modules {
			names = append(names, name)
		}
		b.mu.Unlock()
		resp, err := wire.NewResponse(m, map[string][]string{"modules": names})
		if err == nil {
			b.routeResponse(inbound{msg: resp})
		}
		return true
	default:
		b.respondErr(m, ErrnoNoSys, fmt.Sprintf("cmb: unknown method %q", m.Method()))
		return true
	}
}

// sequenceEvent (root only) assigns the next sequence number and
// distributes the event session-wide. It returns the assigned sequence.
// The event inherits the publishing request's trace context (or starts
// a fresh trace for broker-internal publications), so an event's
// session-wide fan-out chains onto the cmb.pub request that caused it.
func (b *Broker) sequenceEvent(topic string, payload json.RawMessage, traceID uint64, hops uint8) uint64 {
	if traceID == 0 {
		traceID = b.newTraceID()
	}
	// Sequence assignment and fan-out happen under one evMu critical
	// section: if they were separate, two concurrently sequenced events
	// could fan out in the wrong order and trip every child's gap check.
	b.evMu.Lock()
	b.eventSeq++
	seq := b.eventSeq
	ev := &wire.Message{Type: wire.Event, Topic: topic, Seq: seq, Payload: payload,
		Epoch: b.epoch.Load(), TraceID: traceID, Parent: hops, Hops: hops}
	b.applyEventLocked(ev)
	b.evMu.Unlock()
	b.ctr.eventsPublished.Inc()
	return seq
}

// applyEvent delivers an event locally in sequence order and forwards it
// down the event-plane tree. Duplicates (possible after a resync) are
// dropped by sequence number, preserving exactly-once, in-order apply.
//
// An event message is shared by every recipient and forwarded child, so
// unlike requests its trace context is never advanced in place: the
// per-rank span derives its hop number from the rank's static tree
// depth (events only ever flow root-to-leaves), continuing the
// publisher's hop numbering without mutation.
func (b *Broker) applyEvent(ev *wire.Message) {
	b.evMu.Lock()
	b.applyEventLocked(ev)
	b.evMu.Unlock()
}

// applyEventLocked is applyEvent's body; callers hold evMu, which
// serializes event apply against resync replay so the two can never
// interleave out of sequence order on any link.
func (b *Broker) applyEventLocked(ev *wire.Message) {
	start := time.Now()
	b.mu.Lock()
	if ev.Seq <= b.lastEventSeq {
		b.mu.Unlock()
		b.ctr.eventsDuplicate.Inc()
		return
	}
	if ev.Seq != b.lastEventSeq+1 && b.lastEventSeq != 0 {
		b.ctr.eventSeqGaps.Inc()
		// The gap may have swallowed a membership event; anti-entropy
		// re-fetches the authoritative view from the root.
		b.startMembershipSync()
	}
	b.lastEventSeq = ev.Seq
	// Membership events are folded while the sequencing lock is held, so
	// every broker applies the same view changes in the same total order.
	if ev.Topic == wire.EventJoin || ev.Topic == wire.EventLeave {
		b.applyMembershipLocked(ev)
	}
	// Every broker applies every event, so the session heartbeat doubles
	// as the log plane's clock: each pulse flushes pending warn+ records
	// one hop upstream (after the lock below is released).
	heartbeat := ev.Topic == wire.EventHeartbeat

	// Recipients come from the per-topic table under the lock (a map
	// hit while nobody subscribes, attaches or resyncs); delivery runs
	// outside it.
	rcpt := b.recipientsLocked(ev.Topic)
	// Encode once: if any child link can ship raw frames, marshal the
	// event a single time and let every such link (plus future resync
	// replays) share the bytes. Marshal failure just falls back to
	// per-link Send, which will surface the same error.
	var frame *wire.Frame
	if rcpt.frameTargets > 0 {
		if f, err := wire.NewFrame(ev); err == nil {
			frame = f
		}
	}
	evicted := b.recordEvent(ev, frame)
	b.mu.Unlock()
	if evicted != nil {
		evicted.Release()
	}

	b.ctr.eventsApplied.Inc()
	if heartbeat {
		b.maybeForwardLogs()
	}

	// Events are immutable once published: the same message value is
	// shared by every local recipient and forwarded child, and the same
	// encoded frame by every frame-capable child. Modules are fed before
	// local handles: a request a handle sends after seeing ev then queues
	// behind ev in the module's single inbox FIFO (event->request
	// causality, DESIGN.md §14).
	for _, r := range rcpt.mods {
		r.inbox.Push(ev)
	}
	for _, l := range rcpt.local {
		b.send(l, ev)
	}
	for _, l := range rcpt.down {
		if fs, ok := l.conn.(transport.FrameSender); ok && frame != nil {
			b.sendFrame(l, fs, frame)
		} else {
			b.send(l, ev)
		}
	}
	if frame != nil {
		b.ctr.eventsFanoutEncodes.Inc()
		if rcpt.frameTargets > 1 {
			b.ctr.eventsFanoutReuse.Add(uint64(rcpt.frameTargets - 1))
		}
	}

	work := time.Since(start)
	b.hist.applyEvent.Observe(work)
	if ev.TraceID != 0 {
		hop := int(ev.Hops) + b.depth + 1
		if hop > 255 {
			hop = 255
		}
		b.traces.Append(obs.Span{
			Trace: ev.TraceID, Rank: b.cfg.Rank, Hop: uint8(hop), Parent: uint8(hop - 1),
			Kind: "event", Topic: ev.Topic,
			Link:   rcpt.span,
			WorkNS: int64(work), StartNS: start.UnixNano(),
		})
	}
}

// recordEvent appends ev and its shared frame (nil when none was
// encoded) to the resync history and returns the frame of the record
// that fell out of it, for the caller to release once mu is dropped.
// The history is a window sliding over its backing array: the oldest
// record leaves by re-slicing, and append copies the window to a fresh
// array only when it reaches the array's end, so an event costs O(1)
// amortised rather than a copy of the whole history. Called with mu
// held.
func (b *Broker) recordEvent(ev *wire.Message, frame *wire.Frame) (evicted *wire.Frame) {
	b.eventHist = append(b.eventHist, eventRec{msg: ev, frame: frame})
	if len(b.eventHist) > b.cfg.EventHistory {
		evicted = b.eventHist[0].frame
		b.eventHist[0] = eventRec{} // the backing array must not pin the record
		b.eventHist = b.eventHist[1:]
	}
	return evicted
}

// sendFrame ships one reference of the shared event frame down a
// frame-capable link, with the same error accounting as send.
func (b *Broker) sendFrame(l *link, fs transport.FrameSender, f *wire.Frame) {
	if err := fs.SendFrame(f.Retain()); err != nil {
		b.ctr.sendErrors.Inc()
		b.log.Warnf(wire.ServiceCMB, "send frame on %s: %v", l.id, err)
	}
}

// replayEvents sends cached events with sequence > last down one link,
// bringing a newly adopted child up to date after re-parenting, then
// ungates the link. Both steps run under evMu: an event sequenced after
// the backlog snapshot but before the ungate would otherwise miss both
// the replay and the live fan-out — a silent gap the child never learns
// about. Cached frames are reused here too: a resync costs zero marshals
// for events that still hold their encoding.
func (b *Broker) replayEvents(l *link, last uint64) {
	fs, frameOK := l.conn.(transport.FrameSender)
	b.evMu.Lock()
	b.mu.Lock()
	var replay []eventRec
	for _, rec := range b.eventHist {
		if rec.msg.Seq > last {
			if frameOK && rec.frame != nil {
				rec.frame.Retain() // the loop below owns this reference
			} else {
				rec.frame = nil // value copy; the cache keeps its own ref
			}
			replay = append(replay, rec)
		}
	}
	l.gated = false
	b.invalidateRecipients()
	b.mu.Unlock()
	var reused uint64
	for _, rec := range replay {
		if rec.frame != nil {
			// The reference taken above is handed to the transport
			// directly (not via sendFrame, which retains again).
			if err := fs.SendFrame(rec.frame); err != nil {
				b.ctr.sendErrors.Inc()
				b.log.Warnf(wire.ServiceCMB, "replay frame on %s: %v", l.id, err)
			}
			reused++
		} else {
			b.send(l, rec.msg)
		}
	}
	b.evMu.Unlock()
	if reused > 0 {
		b.ctr.eventsFanoutReuse.Add(reused)
	}
}

// LastEventSeq returns the sequence number of the most recently applied
// event at this broker.
func (b *Broker) LastEventSeq() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.lastEventSeq
}
