// Package client provides external-program access to a CMB broker over
// TCP — the transport the paper's flux utility uses (a UNIX socket
// there, an authenticated TCP connection here). It mirrors the
// in-process Handle API: RPCs with match-tag demultiplexing, and event
// subscriptions maintained broker-side via cmb.sub control messages.
package client

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"fluxgo/internal/transport"
	"fluxgo/internal/wire"
)

// ErrClosed is returned after the connection has shut down.
var ErrClosed = errors.New("client: connection closed")

// DefaultRPCTimeout bounds RPCs issued without a caller deadline, so an
// external tool never hangs on a wedged or partitioned broker. It
// mirrors broker.DefaultRPCTimeout.
const DefaultRPCTimeout = 60 * time.Second

// errnoTimedOut aliases the wire-level ETIMEDOUT, so callers can
// classify client-side and broker-side deadline errors uniformly with
// wire.IsErrnum.
const errnoTimedOut = wire.ErrnoTimedOut

// Client is a connection to one broker.
type Client struct {
	conn    transport.Conn
	nextTag atomic.Uint64

	// Timeout bounds each RPC whose context carries no deadline of its
	// own. Zero means DefaultRPCTimeout; negative disables the bound.
	Timeout time.Duration

	mu      sync.Mutex
	pending map[uint64]chan *wire.Message
	subs    map[*Subscription]bool
	closed  bool
	readErr error
	done    chan struct{}
}

// Dial connects and authenticates to a broker at addr.
func Dial(addr string, key []byte) (*Client, error) {
	var nonce [8]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return nil, err
	}
	id := "client:" + hex.EncodeToString(nonce[:])
	conn, err := transport.Dial(addr, key, id)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:    conn,
		pending: map[uint64]chan *wire.Message{},
		subs:    map[*Subscription]bool{},
		done:    make(chan struct{}),
	}
	go c.readLoop()
	return c, nil
}

func (c *Client) readLoop() {
	defer close(c.done)
	for {
		m, err := c.conn.Recv()
		if err != nil {
			c.mu.Lock()
			c.closed = true
			if err != io.EOF {
				c.readErr = err
			}
			for tag, ch := range c.pending {
				close(ch)
				delete(c.pending, tag)
			}
			for s := range c.subs {
				close(s.ch)
				delete(c.subs, s)
			}
			c.mu.Unlock()
			return
		}
		switch m.Type {
		case wire.Response:
			c.mu.Lock()
			ch, ok := c.pending[m.Seq]
			if ok {
				delete(c.pending, m.Seq)
			}
			c.mu.Unlock()
			if ok {
				ch <- m
			}
		case wire.Event:
			c.mu.Lock()
			for s := range c.subs {
				if matchTopic(s.prefix, m.Topic) {
					select {
					case s.ch <- m:
					default: // slow subscriber: drop rather than stall the link
					}
				}
			}
			c.mu.Unlock()
		}
	}
}

// matchTopic mirrors the broker's hierarchical prefix rule.
func matchTopic(prefix, topic string) bool {
	if prefix == "" {
		return true
	}
	if len(topic) < len(prefix) || topic[:len(prefix)] != prefix {
		return false
	}
	return len(topic) == len(prefix) || topic[len(prefix)] == '.'
}

// RPC sends a request and waits for the matching response.
func (c *Client) RPC(topic string, nodeid uint32, body any) (*wire.Message, error) {
	return c.RPCContext(context.Background(), topic, nodeid, body)
}

// RPCContext is RPC with cancellation. When ctx carries no deadline,
// the client's Timeout applies.
func (c *Client) RPCContext(ctx context.Context, topic string, nodeid uint32, body any) (*wire.Message, error) {
	m, err := wire.NewRequest(topic, nodeid, body)
	if err != nil {
		return nil, err
	}
	return c.exchange(ctx, m)
}

// exchange sends m under a fresh match tag and waits for the response
// carrying it: an RPC's, or the broker's acknowledgement of a control
// message.
func (c *Client) exchange(ctx context.Context, m *wire.Message) (*wire.Message, error) {
	timeout := c.Timeout
	if timeout == 0 {
		timeout = DefaultRPCTimeout
	}
	ownDeadline := false
	if _, has := ctx.Deadline(); !has && timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
		ownDeadline = true
	}
	tag := c.nextTag.Add(1)
	m.Seq = tag
	ch := make(chan *wire.Message, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.pending[tag] = ch
	c.mu.Unlock()
	if err := c.conn.Send(m); err != nil {
		c.forget(tag)
		return nil, err
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			return nil, c.closeErr()
		}
		if err := wire.ResponseError(resp); err != nil {
			return resp, err
		}
		return resp, nil
	case <-ctx.Done():
		c.forget(tag)
		if ownDeadline && errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return nil, &wire.RPCError{Topic: m.Topic, Errnum: errnoTimedOut,
				Msg: fmt.Sprintf("rpc deadline (%s) exceeded", timeout)}
		}
		return nil, ctx.Err()
	}
}

func (c *Client) forget(tag uint64) {
	c.mu.Lock()
	delete(c.pending, tag)
	c.mu.Unlock()
}

func (c *Client) closeErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.readErr != nil {
		return c.readErr
	}
	return ErrClosed
}

// Subscription is a client-side event stream.
type Subscription struct {
	c      *Client
	prefix string
	ch     chan *wire.Message
	once   sync.Once
}

// Chan returns the event channel. Slow consumers may drop events.
func (s *Subscription) Chan() <-chan *wire.Message { return s.ch }

// Close cancels the subscription broker-side and locally.
func (s *Subscription) Close() {
	s.once.Do(func() {
		un := &wire.Message{Type: wire.Control, Topic: wire.TopicUnsub}
		un.PackJSON(map[string]string{"prefix": s.prefix})
		//fluxlint:ignore errno-discipline best-effort unsubscribe on teardown; a failed send means the conn is closing, which unsubscribes anyway
		s.c.conn.Send(un)
		s.c.mu.Lock()
		if s.c.subs[s] {
			delete(s.c.subs, s)
			close(s.ch)
		}
		s.c.mu.Unlock()
	})
}

// Subscribe registers interest in events matching prefix. It returns
// once the broker has acknowledged the subscription, so every event
// sequenced after Subscribe returns is delivered.
func (c *Client) Subscribe(prefix string) (*Subscription, error) {
	s := &Subscription{c: c, prefix: prefix, ch: make(chan *wire.Message, 256)}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.subs[s] = true
	c.mu.Unlock()
	sub := &wire.Message{Type: wire.Control, Topic: wire.TopicSub}
	if err := sub.PackJSON(map[string]string{"prefix": prefix}); err != nil {
		return nil, err
	}
	if _, err := c.exchange(context.Background(), sub); err != nil {
		s.Close()
		return nil, fmt.Errorf("client: subscribe: %w", err)
	}
	return s, nil
}

// Close tears the connection down.
func (c *Client) Close() {
	c.conn.Close()
	<-c.done
}
