package client

import (
	"context"
	"fmt"
	"testing"
	"time"

	"fluxgo/internal/broker"
	"fluxgo/internal/kvs"
	"fluxgo/internal/session"
	"fluxgo/internal/transport"
	"fluxgo/internal/wire"
)

// startTCPSession brings up a real size-3 TCP comms session on loopback
// and returns the rank addresses.
func startTCPSession(t *testing.T, key []byte) []string {
	t.Helper()
	mods := []session.ModuleFactory{kvs.Factory(kvs.ModuleConfig{})}

	// Start every rank on an ephemeral port; ranks need their parent's
	// address, so start rank 0 first and propagate addresses downward.
	// The ring makes bring-up cyclic (rank 0 dials rank 1 which dials
	// rank 2 which dials rank 0), so all ranks start concurrently on
	// pre-agreed ports and rely on the dial retry loop.
	addrs := make([]string, 3)
	var brokers []*session.TCPBroker
	base := 39200 + (time.Now().Nanosecond()/1000)%20000
	for r := 0; r < 3; r++ {
		addrs[r] = fmt.Sprintf("127.0.0.1:%d", base+r)
	}
	type res struct {
		b   *session.TCPBroker
		err error
	}
	ch := make(chan res, 3)
	for r := 0; r < 3; r++ {
		go func(r int) {
			parent, ringNext, err := session.TreeAddrs(r, 3, 2, func(x int) string { return addrs[x] })
			if err != nil {
				ch <- res{nil, err}
				return
			}
			b, err := session.StartTCPBroker(session.TCPConfig{
				Rank: r, Size: 3, Listen: addrs[r], ParentAddr: parent,
				RingNextAddr: ringNext, Key: key, Modules: mods,
				DialTimeout: 20 * time.Second,
			})
			ch <- res{b, err}
		}(r)
	}
	for i := 0; i < 3; i++ {
		r := <-ch
		if r.err != nil {
			t.Fatal(r.err)
		}
		brokers = append(brokers, r.b)
	}
	t.Cleanup(func() {
		for _, b := range brokers {
			b.Close()
		}
	})
	return addrs
}

func TestTCPSessionEndToEnd(t *testing.T) {
	key := []byte("tcp-test-key")
	addrs := startTCPSession(t, key)

	// Client connects to a leaf broker.
	c, err := Dial(addrs[2], key)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Tree-routed ping.
	resp, err := c.RPC("cmb.ping", wire.NodeidAny, map[string]string{"pad": "x"})
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Rank int `json:"rank"`
	}
	resp.UnpackJSON(&body)
	if body.Rank != 2 {
		t.Fatalf("local ping served by rank %d", body.Rank)
	}

	// Rank-addressed ping over the ring, through real TCP hops.
	resp, err = c.RPC("cmb.ping", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.UnpackJSON(&body)
	if body.Rank != 1 {
		t.Fatalf("ring ping served by rank %d", body.Rank)
	}

	// KVS through the client link: put at the leaf, commit at the master.
	if _, err := c.RPC("kvs.getversion", wire.NodeidAny, nil); err != nil {
		t.Fatal(err)
	}

	// Event subscription: publish from another client, receive here.
	sub, err := c.Subscribe("tcptest")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	c2, err := Dial(addrs[1], key)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	pub, err := wire.NewRequest("cmb.pub", wire.NodeidAny, map[string]any{
		"topic": "tcptest.hello", "payload": map[string]int{"x": 1},
	})
	_ = pub
	// Use the RPC path for publication.
	type pubBody struct {
		Topic   string         `json:"topic"`
		Payload map[string]int `json:"payload"`
	}
	if _, err := c2.RPC("cmb.pub", wire.NodeidAny, pubBody{Topic: "tcptest.hello", Payload: map[string]int{"x": 1}}); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-sub.Chan():
		if ev.Topic != "tcptest.hello" {
			t.Fatalf("event topic %s", ev.Topic)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("event not delivered to TCP client")
	}
}

func TestClientRPCContextCancel(t *testing.T) {
	key := []byte("k2")
	addrs := startTCPSession(t, key)
	c, err := Dial(addrs[0], key)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.RPCContext(ctx, "cmb.ping", wire.NodeidAny, nil); err != context.Canceled {
		t.Fatalf("err = %v, want Canceled", err)
	}
}

func TestClientWrongKeyRejected(t *testing.T) {
	key := []byte("rightkey3")
	addrs := startTCPSession(t, key)
	if _, err := Dial(addrs[0], []byte("wrong")); err == nil {
		t.Fatal("wrong key accepted")
	}
}

func TestClientCloseFailsPending(t *testing.T) {
	key := []byte("k4")
	addrs := startTCPSession(t, key)
	c, err := Dial(addrs[0], key)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.RPC("cmb.ping", wire.NodeidAny, nil); err == nil {
		t.Fatal("RPC after close succeeded")
	}
}

func TestMatchTopicClient(t *testing.T) {
	if !matchTopic("a", "a.b") || matchTopic("a", "ab") || !matchTopic("", "x") {
		t.Fatal("matchTopic rules wrong")
	}
}

// attachClient connects a Client to rank's broker of an in-process
// session over a real socket.
func attachClient(t *testing.T, s *session.Session, rank int) *Client {
	t.Helper()
	key := []byte("attach")
	ln, err := transport.Listen("127.0.0.1:0", key, fmt.Sprintf("rank:%d", rank))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			s.Broker(rank).AttachConn(broker.LinkClient, conn)
		}
		accepted <- err
	}()
	c, err := Dial(ln.Addr().String(), key)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := <-accepted; err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSubscribeThenPublish: an event published right after Subscribe
// returns reaches the subscriber. The subscription and the publication
// travel on one link, but the broker handles control messages on shard
// 0 and a request on its flow's shard, so Subscribe must wait for the
// broker's acknowledgement. A second client keeps shard 0 busy with
// subscription churn, as other tools attached to the same broker may.
func TestSubscribeThenPublish(t *testing.T) {
	s, err := session.New(session.Options{Size: 3, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	c := attachClient(t, s, 0)
	churn := attachClient(t, s, 0)
	stop := make(chan struct{})
	churned := make(chan struct{})
	go func() {
		defer close(churned)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			topic := wire.TopicSub
			if i%2 == 1 {
				topic = wire.TopicUnsub
			}
			m := &wire.Message{Type: wire.Control, Topic: topic}
			m.PackJSON(map[string]string{"prefix": "churn"})
			if churn.conn.Send(m) != nil {
				return
			}
		}
	}()
	defer func() { close(stop); <-churned }()
	type pubBody struct {
		Topic string `json:"topic"`
	}
	for i := 0; i < 200; i++ {
		topic := fmt.Sprintf("subpub%d", i)
		sub, err := c.Subscribe(topic)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.RPC(wire.TopicPub, wire.NodeidAny, pubBody{Topic: topic}); err != nil {
			t.Fatal(err)
		}
		select {
		case ev := <-sub.Chan():
			if ev.Topic != topic {
				t.Fatalf("event %q on the subscription to %q", ev.Topic, topic)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("event %d published right after Subscribe returned never arrived", i)
		}
		sub.Close()
	}
}
