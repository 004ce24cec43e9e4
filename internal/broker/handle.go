package broker

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fluxgo/internal/clock"
	"fluxgo/internal/debuglock"
	"fluxgo/internal/obs"
	"fluxgo/internal/wire"
)

// errShutdown is returned by handle operations once the broker or the
// handle has shut down.
var errShutdown = errors.New("broker: shutting down")

// ErrShutdown reports whether err indicates broker/handle shutdown.
func ErrShutdown(err error) bool { return errors.Is(err, errShutdown) }

// Handle is a program's connection to its local broker — the analogue of
// a flux_t handle in the C prototype. Comms modules, tools, and
// application run-times all use Handles for RPCs, events, and responses.
// A Handle is safe for concurrent use. It owns no goroutine: the broker
// settles responses and fills subscriptions on its delivering goroutine
// (see deliver); only each Subscription's mailbox has a pump.
type Handle struct {
	b        *Broker
	id       string
	link     *link
	nextTag  atomic.Uint64
	closedCh chan struct{}

	mu      debuglock.Mutex
	pending map[uint64]chan *wire.Message
	subs    []*Subscription
	closed  bool
}

// NewHandle attaches a new in-process handle to the broker.
func (b *Broker) NewHandle() *Handle {
	h := &Handle{
		b:        b,
		id:       fmt.Sprintf("h:%d.%d", b.cfg.Rank, b.handleSeq.Add(1)),
		closedCh: make(chan struct{}),
		pending:  make(map[uint64]chan *wire.Message),
	}
	h.mu.SetClass("broker.Handle.mu")
	h.link = &link{kind: linkHandle, id: h.id, h: h}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		h.shutdown()
		return h
	}
	b.links[h.id] = h.link
	b.publishLinksLocked()
	b.mu.Unlock()
	return h
}

// ID returns the handle's broker-unique identity string.
func (h *Handle) ID() string { return h.id }

// Rank returns the local broker's rank.
func (h *Handle) Rank() int { return h.b.cfg.Rank }

// Size returns the comms session size.
func (h *Handle) Size() int { return h.b.cfg.Size }

// Clock returns the broker's time source.
func (h *Handle) Clock() clock.Clock { return h.b.cfg.Clock }

// Broker returns the handle's broker (for introspection).
func (h *Handle) Broker() *Broker { return h.b }

// LiveSize returns the number of live ranks in the broker's current
// membership view (Size is the founding size and never changes).
func (h *Handle) LiveSize() int { return h.b.LiveSize() }

// Epoch returns the broker's current membership epoch.
func (h *Handle) Epoch() uint32 { return h.b.Epoch() }

// RankSpace returns the broker's current rank-space size (departed
// ranks included).
func (h *Handle) RankSpace() int { return h.b.RankSpace() }

// JoinedLate reports whether the broker joined after session start.
func (h *Handle) JoinedLate() bool { return h.b.JoinedLate() }

// Log records a leveled, subsystem-tagged diagnostic in the broker's
// structured log ring (the telemetry plane behind flux dmesg). sub
// names the subsystem, normally the module's service name.
func (h *Handle) Log(level int, sub, format string, args ...any) {
	h.b.log.Log(level, sub, format, args...)
}

// Logger exposes the broker's leveled logger for modules that gate
// expensive diagnostics on Logger().Enabled(level).
func (h *Handle) Logger() *obs.Logger { return h.b.log }

// deliver hands a message routed to the handle over, on the broker's
// delivering goroutine. It reports false once the handle has shut down.
//
// A response settles its pending RPC: the channel is buffered
// (capacity 1) and each tag has exactly one response in flight, so the
// send never blocks a dispatch shard. An event is pushed into every
// matching subscription's mailbox, which never blocks either. Events
// arrive under the broker's evMu, one at a time in session order and
// after the modules have been fed, so each subscription sees them in
// that order and a request sent after reading one reaches a module
// after it. Lock order: evMu -> Handle.mu -> Mailbox.mu. Anything else
// is dropped: handles do not serve requests.
func (h *Handle) deliver(m *wire.Message) bool {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return false
	}
	switch m.Type {
	case wire.Response:
		ch, ok := h.pending[m.Seq]
		if ok {
			delete(h.pending, m.Seq)
		}
		h.mu.Unlock()
		if ok {
			ch <- m
		}
		return true
	case wire.Event:
		for _, s := range h.subs {
			if matchTopic(s.prefix, m.Topic) {
				s.mb.Push(m)
			}
		}
	}
	h.mu.Unlock()
	return true
}

// wantsEvent reports whether any subscription matches topic.
func (h *Handle) wantsEvent(topic string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, s := range h.subs {
		if matchTopic(s.prefix, topic) {
			return true
		}
	}
	return false
}

// DefaultRPCTimeout is the deadline applied to RPCs when neither the
// call (RPCOptions.Timeout) nor the broker (Config.RPCTimeout) sets one.
// It is deliberately generous: it is a no-hang backstop for faults that
// drop no link (silent crashes, partitions), not a latency target —
// link-drop failures surface much sooner via EHOSTUNREACH.
const DefaultRPCTimeout = 60 * time.Second

// RPCOptions tunes the deadline/retry behaviour of one RPC.
type RPCOptions struct {
	// Timeout bounds each attempt. 0 uses the broker's configured
	// default (Config.RPCTimeout, itself defaulting to
	// DefaultRPCTimeout); negative disables the deadline.
	Timeout time.Duration
	// Retries is how many additional attempts are made after a transient
	// failure (EHOSTUNREACH on a dropped route, or a deadline expiry).
	// Retries MUST only be requested for idempotent operations — kvs
	// gets, version queries, deduplicated fence entries — because the
	// failed attempt may in fact have been executed.
	Retries int
	// Backoff is the delay before the first retry; it doubles on each
	// subsequent retry (capped at 2s) and is jittered to [d/2, d] so
	// synchronized failures do not retry in lockstep. 0 defaults to 20ms.
	Backoff time.Duration
}

// maxRetryBackoff caps the exponential retry delay.
const maxRetryBackoff = 2 * time.Second

// IsTransient reports whether err is a transient routing failure — a
// deadline expiry, an unreachable hop, or a stale-epoch rejection during
// a membership change — that an idempotent caller may retry, possibly
// after the overlay self-heals or the join handshake completes.
func IsTransient(err error) bool {
	return wire.IsErrnum(err, ErrnoTimedOut) || wire.IsErrnum(err, ErrnoHostUnreach) ||
		wire.IsErrnum(err, ErrnoStale)
}

// RPC sends a request and blocks until the matching response arrives or
// the broker's default deadline expires (no Handle RPC can hang
// indefinitely). On a failed response (nonzero errnum) the response is
// returned along with the decoded error. nodeid selects routing:
// wire.NodeidAny routes upstream to the first matching module;
// wire.NodeidUpstream skips the local rank; a concrete rank routes over
// the rank-addressed overlay.
func (h *Handle) RPC(topic string, nodeid uint32, body any) (*wire.Message, error) {
	return h.RPCWithOptions(context.Background(), topic, nodeid, body, RPCOptions{})
}

// RPCContext is RPC with cancellation.
func (h *Handle) RPCContext(ctx context.Context, topic string, nodeid uint32, body any) (*wire.Message, error) {
	return h.RPCWithOptions(ctx, topic, nodeid, body, RPCOptions{})
}

// RPCWithOptions is RPC with an explicit deadline/retry policy. Every
// attempt is a fresh request with a fresh match tag; a response to an
// abandoned attempt finds no pending entry and is dropped. Retries re-route
// from scratch, so an attempt that failed over a now-dead parent link is
// re-issued over the adoptive parent once re-parenting completes.
func (h *Handle) RPCWithOptions(ctx context.Context, topic string, nodeid uint32, body any, opts RPCOptions) (*wire.Message, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	timeout := opts.Timeout
	if timeout == 0 {
		timeout = h.b.cfg.RPCTimeout
	}
	for attempt := 0; ; attempt++ {
		resp, err := h.rpcOnce(ctx, topic, nodeid, body, timeout)
		if err == nil || attempt >= opts.Retries || !IsTransient(err) {
			return resp, err
		}
		if err := h.Backoff(ctx, opts.Backoff, attempt); err != nil {
			return nil, err
		}
	}
}

// Backoff waits out the delay before retry number attempt+1 of a
// transient failure: base (0 defaults to 20ms) doubled per attempt,
// capped at 2s, jittered to [d/2, d] so synchronized failures do not
// retry in lockstep. It returns ctx's error if ctx ends first, or a
// shutdown error if the handle closes first. Callers that rebuild the
// request between attempts use it in place of RPCOptions.Retries.
func (h *Handle) Backoff(ctx context.Context, base time.Duration, attempt int) error {
	if base <= 0 {
		base = 20 * time.Millisecond
	}
	d := base << uint(attempt)
	if d > maxRetryBackoff || d <= 0 {
		d = maxRetryBackoff
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1)) // jitter to [d/2, d]
	t := h.Clock().NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C():
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-h.closedCh:
		return errShutdown
	}
}

// rpcOnce performs a single request/response exchange with an optional
// deadline (timeout <= 0 disables it).
func (h *Handle) rpcOnce(ctx context.Context, topic string, nodeid uint32, body any, timeout time.Duration) (*wire.Message, error) {
	m, err := wire.NewRequest(topic, nodeid, body)
	if err != nil {
		return nil, err
	}
	tag := h.nextTag.Add(1)
	m.Seq = tag
	ch := make(chan *wire.Message, 1)

	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, errShutdown
	}
	h.pending[tag] = ch
	h.mu.Unlock()

	if !h.b.submit(inbound{msg: m, from: h.link}) {
		h.forget(tag)
		return nil, errShutdown
	}
	var timerC <-chan time.Time
	if timeout > 0 {
		t := h.Clock().NewTimer(timeout)
		defer t.Stop()
		timerC = t.C()
	}
	select {
	case resp := <-ch:
		if err := wire.ResponseError(resp); err != nil {
			return resp, err
		}
		return resp, nil
	case <-timerC:
		h.forget(tag)
		return nil, &wire.RPCError{Topic: topic, Errnum: ErrnoTimedOut,
			Msg: fmt.Sprintf("rpc deadline (%s) exceeded", timeout)}
	case <-ctx.Done():
		h.forget(tag)
		return nil, ctx.Err()
	case <-h.closedCh:
		return nil, errShutdown
	}
}

func (h *Handle) forget(tag uint64) {
	h.mu.Lock()
	delete(h.pending, tag)
	h.mu.Unlock()
}

// Send issues a fire-and-forget request (match tag 0): no response is
// expected or routed back.
func (h *Handle) Send(topic string, nodeid uint32, body any) error {
	m, err := wire.NewRequest(topic, nodeid, body)
	if err != nil {
		return err
	}
	m.Seq = 0
	if !h.b.submit(inbound{msg: m, from: h.link}) {
		return errShutdown
	}
	return nil
}

// Respond answers a request previously delivered to a module. For
// fire-and-forget requests it is a no-op.
func (h *Handle) Respond(req *wire.Message, body any) error {
	if req.Seq == 0 {
		return nil
	}
	resp, err := wire.NewResponse(req, body)
	if err != nil {
		return err
	}
	if !h.b.submit(inbound{msg: resp}) {
		return errShutdown
	}
	return nil
}

// RespondError answers a request with an error response.
func (h *Handle) RespondError(req *wire.Message, errnum int32, msg string) error {
	if req.Seq == 0 {
		return nil
	}
	if !h.b.submit(inbound{msg: wire.NewErrorResponse(req, errnum, msg)}) {
		return errShutdown
	}
	return nil
}

// ForwardUpstream re-forwards a request toward the root without matching
// the local module again, preserving its route stack so the eventual
// response returns directly to the original requester. Modules use this
// to pass requests they cannot satisfy to their upstream instance.
func (h *Handle) ForwardUpstream(req *wire.Message) error {
	req.Nodeid = wire.NodeidAny
	if !h.b.submit(inbound{msg: req, forceUp: true}) {
		return errShutdown
	}
	return nil
}

// PublishEvent publishes an event session-wide via the root sequencer
// and returns the assigned sequence number. A wire.RawBody body is the
// payload verbatim; any other body is JSON-encoded. The cmb.pub
// envelope itself is always the binary body (topic, payload), which
// carries either kind of payload without re-encoding it.
func (h *Handle) PublishEvent(topic string, body any) (uint64, error) {
	if body == nil {
		body = struct{}{}
	}
	var raw []byte
	if pre, ok := body.(wire.RawBody); ok {
		raw = pre
	} else {
		var err error
		if raw, err = json.Marshal(body); err != nil {
			return 0, fmt.Errorf("broker: publish %s: %w", topic, err)
		}
	}
	w := wire.NewBinWriter(len(topic) + len(raw) + 8)
	w.String(topic)
	w.Bytes(raw)
	resp, err := h.RPC(wire.TopicPub, wire.NodeidAny, wire.RawBody(w.Finish()))
	if err != nil {
		return 0, err
	}
	var out struct {
		Seq uint64 `json:"seq"`
	}
	if err := resp.UnpackJSON(&out); err != nil {
		return 0, err
	}
	return out.Seq, nil
}

// Subscription is a stream of events matching a topic prefix. The
// handle's deliver pushes matching events into its mailbox; the
// mailbox's pump is the only goroutine a subscription owns, and it
// exits when the subscription or its handle is closed.
type Subscription struct {
	h      *Handle
	prefix string
	mb     *Mailbox[*wire.Message]
	once   sync.Once
}

// Chan returns the event channel. It closes when the subscription or the
// handle is closed; events not yet read are then discarded.
func (s *Subscription) Chan() <-chan *wire.Message { return s.mb.Out() }

// Close cancels the subscription and discards its unread events.
func (s *Subscription) Close() {
	s.once.Do(func() {
		h := s.h
		h.mu.Lock()
		h.subs = slices.DeleteFunc(h.subs, func(x *Subscription) bool { return x == s })
		h.mu.Unlock()
		h.b.invalidateRecipients()
		s.mb.CloseNow()
	})
}

// Subscribe registers interest in events whose topic matches prefix
// under the hierarchical namespace rules. Events published after
// Subscribe returns are guaranteed to be delivered in session order.
func (h *Handle) Subscribe(prefix string) (*Subscription, error) {
	s := &Subscription{h: h, prefix: prefix, mb: NewMailbox[*wire.Message]()}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		s.mb.CloseNow()
		return nil, errShutdown
	}
	h.subs = append(h.subs, s)
	h.mu.Unlock()
	// After the subscription is in place: an event whose recipients are picked
	// after this bump sees the subscription.
	h.b.invalidateRecipients()
	return s, nil
}

// Close detaches the handle from the broker, failing in-flight RPCs and
// closing subscription channels (unread events are discarded). Close is
// idempotent.
func (h *Handle) Close() {
	h.b.mu.Lock()
	delete(h.b.links, h.id)
	h.b.publishLinksLocked()
	h.b.mu.Unlock()
	h.shutdown()
}

// shutdown tears down handle state without touching the broker registry.
func (h *Handle) shutdown() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	subs := append([]*Subscription(nil), h.subs...)
	h.mu.Unlock()
	close(h.closedCh)
	for _, s := range subs {
		s.mb.CloseNow()
	}
}
