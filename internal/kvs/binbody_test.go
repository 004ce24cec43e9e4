package kvs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"fluxgo/internal/broker"
	"fluxgo/internal/cas"
	extclient "fluxgo/internal/client"
	"fluxgo/internal/session"
	"fluxgo/internal/transport"
	"fluxgo/internal/wire"
)

// TestBinBodyRoundTrip checks every binary-coded kvs body survives an
// encode/decode cycle, and that the same decoder accepts the JSON form —
// the sniff that makes codec v3 a pure encoder-side opt-in.
func TestBinBodyRoundTrip(t *testing.T) {
	put := putBody{Key: "a.b", Ref: "deadbeef", Data: []byte{1, 2, 3, 0xB3}}
	msg := &wire.Message{Payload: []byte(put.bin())}
	got, err := decodePutBody(msg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != put.Key || got.Ref != put.Ref || !bytes.Equal(got.Data, put.Data) {
		t.Fatalf("putBody round trip: got %+v, want %+v", got, put)
	}

	load := loadBody{Ref: "aa", Refs: []string{"bb", "cc"}}
	msg = &wire.Message{Payload: []byte(load.bin())}
	gotLoad, err := decodeLoadBody(msg)
	if err != nil {
		t.Fatal(err)
	}
	if gotLoad.Ref != load.Ref || len(gotLoad.Refs) != 2 || gotLoad.Refs[1] != "cc" {
		t.Fatalf("loadBody round trip: got %+v, want %+v", gotLoad, load)
	}

	resp := loadResp{Data: []byte("xyz"), Objects: map[string][]byte{"k1": {9}, "k2": {8, 7}}}
	msg = &wire.Message{Payload: []byte(resp.bin())}
	gotResp, err := decodeLoadResp(msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotResp.Data, resp.Data) || len(gotResp.Objects) != 2 ||
		!bytes.Equal(gotResp.Objects["k2"], []byte{8, 7}) {
		t.Fatalf("loadResp round trip: got %+v, want %+v", gotResp, resp)
	}

	get := getBody{Key: "a.b", Root: "0123"}
	gotGet, err := decodeGetBody(&wire.Message{Payload: []byte(get.bin())})
	if err != nil || gotGet != get {
		t.Fatalf("getBody round trip: got %+v, %v; want %+v", gotGet, err, get)
	}
	for _, want := range []getResp{
		{Ref: cas.HashOf([]byte("v1")), Val: []byte(`{"k":1}`)},
		{Ref: cas.HashOf([]byte("d")), Dir: []string{"a", "b"}},
	} {
		for form, payload := range map[string][]byte{"binary": want.bin(), "json": nil} {
			m := &wire.Message{Topic: "kvs.get", Payload: payload}
			if payload == nil {
				if err := m.PackJSON(getRespJSON{Ref: want.Ref.String(), Val: want.Val, Dir: want.Dir}); err != nil {
					t.Fatal(err)
				}
			}
			got, err := decodeGetResp(m)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("getResp %s round trip: got %+v, %v; want %+v", form, got, err, want)
			}
		}
	}
	if _, err := decodeGetResp(&wire.Message{Payload: []byte{wire.BinMagic, 3, 1, 2, 3, 0, 0}}); err == nil {
		t.Fatal("a 3-byte reference decoded without error")
	}

	// JSON forms hit the same decoders through the sniff-miss path.
	jm, err := wire.NewRequest("kvs.put", wire.NodeidAny, put)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := decodePutBody(jm)
	if err != nil {
		t.Fatal(err)
	}
	if gotJSON.Key != put.Key || !bytes.Equal(gotJSON.Data, put.Data) {
		t.Fatalf("putBody JSON decode: got %+v, want %+v", gotJSON, put)
	}

	// A truncated binary body fails loudly rather than yielding zeroes.
	trunc := []byte(put.bin())[:3]
	if _, err := decodePutBody(&wire.Message{Payload: trunc}); err == nil {
		t.Fatal("truncated binary body decoded without error")
	}
}

// binKVSSession is newKVSSession with binary bodies negotiated on.
func binKVSSession(t testing.TB, size, arity int) *session.Session {
	t.Helper()
	s, err := session.New(session.Options{
		Size:    size,
		Arity:   arity,
		Codec:   true,
		Modules: []session.ModuleFactory{Factory(ModuleConfig{})},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestBinaryBodiesEndToEnd runs the put/commit/get/load cycle across a
// codec-linked tree with every broker speaking binary bodies.
func TestBinaryBodiesEndToEnd(t *testing.T) {
	s := binKVSSession(t, 7, 2)
	w := client(t, s, 6) // leaf: puts and loads traverse two slave levels
	if err := w.Put("bin.key", "hello"); err != nil {
		t.Fatal(err)
	}
	ver, err := w.Commit()
	if err != nil {
		t.Fatal(err)
	}
	r := client(t, s, 5)
	if err := r.WaitVersion(ver); err != nil {
		t.Fatal(err)
	}
	var got string
	if err := r.Get("bin.key", &got); err != nil {
		t.Fatal(err)
	}
	if got != "hello" {
		t.Fatalf("bin.key = %q, want %q", got, "hello")
	}
}

// TestBinaryBodiesCrossVersionLinks mixes encodings on one tree: some
// brokers emit binary bodies, others plain JSON. Decoders sniff, and
// responses follow the request's encoding, so every pairing on a parent
// <-> child link — binary->JSON, JSON->binary — must interoperate.
func TestBinaryBodiesCrossVersionLinks(t *testing.T) {
	s := binKVSSession(t, 3, 2)
	// Rank 1 reverts to JSON: its requests to the binary root arrive as
	// JSON (sniff-miss), and the root's responses to it come back JSON
	// (response follows request). Rank 2 stays binary against the same
	// root, exercising the opposite pairing concurrently.
	s.Broker(1).SetBinaryBodies(false)

	wj := client(t, s, 1) // JSON writer under binary master
	if err := wj.Put("cross.j", 11); err != nil {
		t.Fatal(err)
	}
	verJ, err := wj.Commit()
	if err != nil {
		t.Fatal(err)
	}
	wb := client(t, s, 2) // binary writer under binary master
	if err := wb.Put("cross.b", 22); err != nil {
		t.Fatal(err)
	}
	verB, err := wb.Commit()
	if err != nil {
		t.Fatal(err)
	}

	// Cross-reads: the JSON rank faults in the binary rank's object and
	// vice versa (kvs.load over both encodings).
	ver := verJ
	if verB > ver {
		ver = verB
	}
	var got int
	if err := wj.WaitVersion(ver); err != nil {
		t.Fatal(err)
	}
	if err := wj.Get("cross.b", &got); err != nil {
		t.Fatal(err)
	}
	if got != 22 {
		t.Fatalf("cross.b at JSON rank = %d, want 22", got)
	}
	if err := wb.WaitVersion(ver); err != nil {
		t.Fatal(err)
	}
	if err := wb.Get("cross.j", &got); err != nil {
		t.Fatal(err)
	}
	if got != 11 {
		t.Fatalf("cross.j at binary rank = %d, want 11", got)
	}

	t.Run("get", crossVersionGet)
}

// crossVersionGet covers the kvs.get pair on mixed links: a binary leaf
// faulting through a JSON-only interior rank to a binary root, the
// JSON-only rank's own reads, and an external JSON-only caller
// (internal/client over a real socket, speaking what cmd/flux speaks)
// against a binary-body broker.
func crossVersionGet(t *testing.T) {
	s := binKVSSession(t, 7, 2)
	s.Broker(1).SetBinaryBodies(false) // interior: parent of ranks 3 and 4

	w := client(t, s, 0)
	if err := w.Put("x.val", "deep"); err != nil {
		t.Fatal(err)
	}
	if err := w.Put("x.dir.a", 1); err != nil {
		t.Fatal(err)
	}
	if err := w.Put("x.dir.b", 2); err != nil {
		t.Fatal(err)
	}
	ver, err := w.Commit()
	if err != nil {
		t.Fatal(err)
	}
	wantRef, err := w.GetRef("x.dir")
	if err != nil {
		t.Fatal(err)
	}

	for _, rank := range []int{3, 1} { // binary leaf under the JSON rank, then the JSON rank
		c := client(t, s, rank)
		if err := c.WaitVersion(ver); err != nil {
			t.Fatal(err)
		}
		var v string
		if err := c.Get("x.val", &v); err != nil || v != "deep" {
			t.Fatalf("rank %d: x.val = %q, %v", rank, v, err)
		}
		if dir, err := c.GetDir("x.dir"); err != nil || len(dir) != 2 || dir[0] != "a" || dir[1] != "b" {
			t.Fatalf("rank %d: x.dir = %v, %v", rank, dir, err)
		}
		if ref, err := c.GetRef("x.dir"); err != nil || ref != wantRef {
			t.Fatalf("rank %d: x.dir ref = %s, %v; want %s", rank, ref, err, wantRef)
		}
		if err := c.Get("x.val.under", nil); !ErrNotDir(err) {
			t.Fatalf("rank %d: read through a value: %v, want ENOTDIR", rank, err)
		}
		if err := c.Get("x.none", nil); !ErrNotFound(err) {
			t.Fatalf("rank %d: read of a missing key: %v, want ENOENT", rank, err)
		}
	}

	// The external caller: JSON request in, JSON response out, from a
	// broker (rank 4, binary) whose own traffic is binary.
	key := []byte("cross-version")
	ln, err := transport.Listen("127.0.0.1:0", key, "rank:4")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			s.Broker(4).AttachConn(broker.LinkClient, conn)
		}
		accepted <- err
	}()
	ext, err := extclient.Dial(ln.Addr().String(), key)
	if err != nil {
		t.Fatal(err)
	}
	defer ext.Close()
	if err := <-accepted; err != nil {
		t.Fatal(err)
	}
	if _, err := ext.RPC("kvs.sync", wire.NodeidAny, map[string]uint64{"version": ver}); err != nil {
		t.Fatal(err)
	}
	resp, err := ext.RPC("kvs.get", wire.NodeidAny, map[string]string{"key": "x.val"})
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Ref string          `json:"ref"`
		Val json.RawMessage `json:"val"`
		Dir []string        `json:"dir"`
	}
	if wire.IsBinaryBody(resp.Payload) {
		t.Fatal("JSON kvs.get was answered with a binary body")
	}
	if err := resp.UnpackJSON(&body); err != nil || string(body.Val) != `"deep"` || len(body.Ref) != 2*cas.RefLen {
		t.Fatalf("external get x.val = %+v, %v", body, err)
	}
	resp, err = ext.RPC("kvs.get", wire.NodeidAny, map[string]string{"key": "x.dir"})
	if err != nil {
		t.Fatal(err)
	}
	body.Val = nil
	if err := resp.UnpackJSON(&body); err != nil || body.Ref != wantRef || len(body.Dir) != 2 || body.Val != nil {
		t.Fatalf("external get x.dir = %+v, %v", body, err)
	}
	if _, err := ext.RPC("kvs.get", wire.NodeidAny, map[string]string{"key": "x.none"}); !ErrNotFound(err) {
		t.Fatalf("external get of a missing key: %v, want ENOENT", err)
	}
}
