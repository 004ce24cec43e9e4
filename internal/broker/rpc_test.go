package broker

import (
	"context"
	"sync"
	"testing"
	"time"

	"fluxgo/internal/transport"
	"fluxgo/internal/wire"
)

// swallowParent attaches a parent tree link whose far end never answers,
// so upstream RPCs hang until a deadline or link failure intervenes. It
// returns the far end of the pipe.
func swallowParent(t *testing.T, b *Broker) transport.Conn {
	t.Helper()
	near, far := transport.Pipe("rank:0", "rank:1")
	b.AttachConn(LinkParentTree, near)
	return far
}

func TestRPCDeadlineExpires(t *testing.T) {
	b, err := New(Config{Rank: 1, Size: 3})
	if err != nil {
		t.Fatal(err)
	}
	b.Start()
	defer b.Shutdown()
	swallowParent(t, b)
	h := b.NewHandle()
	defer h.Close()

	start := time.Now()
	resp, err := h.RPCWithOptions(context.Background(), "slow.op", wire.NodeidAny, nil,
		RPCOptions{Timeout: 30 * time.Millisecond})
	if err == nil {
		t.Fatalf("RPC into a silent parent succeeded: %v", resp)
	}
	if !wire.IsErrnum(err, ErrnoTimedOut) {
		t.Fatalf("err = %v, want ETIMEDOUT", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("deadline did not bound the RPC")
	}
}

func TestRPCDefaultDeadlineFromConfig(t *testing.T) {
	b, err := New(Config{Rank: 1, Size: 3, RPCTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	b.Start()
	defer b.Shutdown()
	swallowParent(t, b)
	h := b.NewHandle()
	defer h.Close()

	// Plain RPC with no per-call options picks up the broker default.
	_, err = h.RPC("slow.op", wire.NodeidAny, nil)
	if !wire.IsErrnum(err, ErrnoTimedOut) {
		t.Fatalf("err = %v, want ETIMEDOUT", err)
	}
	if !IsTransient(err) {
		t.Fatal("deadline expiry not classified transient")
	}
}

// flakyModule fails the first failures requests with errnum, then echoes.
type flakyModule struct {
	h        *Handle
	mu       sync.Mutex
	failures int
	errnum   int32
	calls    int
}

func (m *flakyModule) Name() string            { return "flaky" }
func (m *flakyModule) Subscriptions() []string { return nil }
func (m *flakyModule) Init(h *Handle) error    { m.h = h; return nil }
func (m *flakyModule) Shutdown()               {}

func (m *flakyModule) callCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.calls
}

func (m *flakyModule) Recv(msg *wire.Message) {
	m.mu.Lock()
	m.calls++
	fail := m.calls <= m.failures
	m.mu.Unlock()
	if fail {
		m.h.RespondError(msg, m.errnum, "injected failure")
		return
	}
	m.h.Respond(msg, map[string]bool{"ok": true})
}

func TestRPCRetriesTransientFailure(t *testing.T) {
	b := newBroker(t)
	mod := &flakyModule{failures: 2, errnum: ErrnoHostUnreach}
	if err := b.LoadModule(mod); err != nil {
		t.Fatal(err)
	}
	h := b.NewHandle()
	defer h.Close()

	resp, err := h.RPCWithOptions(context.Background(), "flaky.op", wire.NodeidAny, nil,
		RPCOptions{Retries: 3, Backoff: time.Millisecond})
	if err != nil {
		t.Fatalf("retried RPC failed: %v", err)
	}
	var body struct {
		OK bool `json:"ok"`
	}
	if err := resp.UnpackJSON(&body); err != nil || !body.OK {
		t.Fatalf("response %v err %v", body, err)
	}
	if got := mod.callCount(); got != 3 {
		t.Fatalf("module saw %d calls, want 3 (2 failures + success)", got)
	}
}

func TestRPCRetriesExhausted(t *testing.T) {
	b := newBroker(t)
	mod := &flakyModule{failures: 100, errnum: ErrnoHostUnreach}
	if err := b.LoadModule(mod); err != nil {
		t.Fatal(err)
	}
	h := b.NewHandle()
	defer h.Close()

	_, err := h.RPCWithOptions(context.Background(), "flaky.op", wire.NodeidAny, nil,
		RPCOptions{Retries: 2, Backoff: time.Millisecond})
	if !wire.IsErrnum(err, ErrnoHostUnreach) {
		t.Fatalf("err = %v, want EHOSTUNREACH", err)
	}
	if got := mod.callCount(); got != 3 {
		t.Fatalf("module saw %d calls, want 3 (initial + 2 retries)", got)
	}
}

func TestRPCDoesNotRetryPermanentFailure(t *testing.T) {
	b := newBroker(t)
	mod := &flakyModule{failures: 100, errnum: ErrnoInval}
	if err := b.LoadModule(mod); err != nil {
		t.Fatal(err)
	}
	h := b.NewHandle()
	defer h.Close()

	_, err := h.RPCWithOptions(context.Background(), "flaky.op", wire.NodeidAny, nil,
		RPCOptions{Retries: 5, Backoff: time.Millisecond})
	if !wire.IsErrnum(err, ErrnoInval) {
		t.Fatalf("err = %v, want EINVAL", err)
	}
	if got := mod.callCount(); got != 1 {
		t.Fatalf("permanent failure retried: %d calls", got)
	}
}

// TestLinkDownFailsInflight: a request forwarded upstream whose parent
// link dies before the response returns must fail fast with EHOSTUNREACH
// — the no-hang fast path — rather than waiting out a deadline.
func TestLinkDownFailsInflight(t *testing.T) {
	b, err := New(Config{Rank: 1, Size: 3})
	if err != nil {
		t.Fatal(err)
	}
	b.Start()
	defer b.Shutdown()
	far := swallowParent(t, b)
	h := b.NewHandle()
	defer h.Close()

	errc := make(chan error, 1)
	go func() {
		_, err := h.RPCWithOptions(context.Background(), "slow.op", wire.NodeidAny, nil,
			RPCOptions{Timeout: -1}) // no deadline: only link failure can end this
		errc <- err
	}()

	// Wait until the request has actually been forwarded upstream...
	if _, err := far.Recv(); err != nil {
		t.Fatal(err)
	}
	// ...then kill the parent link.
	far.Close()

	select {
	case err := <-errc:
		if !wire.IsErrnum(err, ErrnoHostUnreach) {
			t.Fatalf("err = %v, want EHOSTUNREACH", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight RPC not failed by parent link death")
	}
	if st := b.Stats(); st.InflightFailed != 1 {
		t.Fatalf("InflightFailed = %d, want 1", st.InflightFailed)
	}
}

// TestNoParentFailsFast: with the parent link already gone (re-parenting
// in flight), upstream requests fail immediately with EHOSTUNREACH.
func TestNoParentFailsFast(t *testing.T) {
	b, err := New(Config{Rank: 1, Size: 3})
	if err != nil {
		t.Fatal(err)
	}
	b.Start()
	defer b.Shutdown()
	h := b.NewHandle()
	defer h.Close()

	_, err = h.RPC("any.op", wire.NodeidAny, nil)
	if !wire.IsErrnum(err, ErrnoHostUnreach) {
		t.Fatalf("err = %v, want EHOSTUNREACH", err)
	}
}

func TestResponseSettlesInflight(t *testing.T) {
	b, err := New(Config{Rank: 1, Size: 3})
	if err != nil {
		t.Fatal(err)
	}
	b.Start()
	defer b.Shutdown()
	far := swallowParent(t, b)
	h := b.NewHandle()
	defer h.Close()

	errc := make(chan error, 1)
	go func() {
		_, err := h.RPC("up.op", wire.NodeidAny, nil)
		errc <- err
	}()
	req, err := far.Recv()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := wire.NewResponse(req, map[string]bool{"ok": true})
	if err != nil {
		t.Fatal(err)
	}
	if err := far.Send(resp); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	// The response retraced the link, so the in-flight entry is settled:
	// a later link death must not synthesize a stale failure.
	if n := b.inflightCount(); n != 0 {
		t.Fatalf("%d in-flight entries after response settled", n)
	}
	if st := b.Stats(); st.InflightFailed != 0 {
		t.Fatalf("InflightFailed = %d, want 0", st.InflightFailed)
	}
}

func TestSendErrorsCounted(t *testing.T) {
	b := newBroker(t)
	h := b.NewHandle()
	// Shut the handle down without deregistering the link, the
	// window a real teardown also passes through.
	h.shutdown()
	b.send(h.link, &wire.Message{Type: wire.Event, Topic: "x"})
	if st := b.Stats(); st.SendErrors != 1 {
		t.Fatalf("SendErrors = %d, want 1", st.SendErrors)
	}
	h.Close()
}
