package kvs

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"

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

	for _, load := range loadBodies() {
		got, err := decodeLoadBody(&wire.Message{Payload: load.bin()})
		if err != nil || !reflect.DeepEqual(got, load) {
			t.Fatalf("loadBody binary round trip: got %+v, %v; want %+v", got, err, load)
		}
		jm, err := wire.NewRequest("kvs.load", wire.NodeidAny, load.jsonForm())
		if err != nil {
			t.Fatal(err)
		}
		if got, err = decodeLoadBody(jm); err != nil || !reflect.DeepEqual(got, load) {
			t.Fatalf("loadBody JSON decode: got %+v, %v; want %+v", got, err, load)
		}
	}
	one := cas.HashOf([]byte("one"))
	single, err := wire.NewRequest("kvs.load", wire.NodeidAny, loadBodyJSON{Ref: one.String()})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := decodeLoadBody(single); err != nil || !reflect.DeepEqual(got, loadBody{Refs: []cas.Ref{one}, Single: true}) {
		t.Fatalf("single-ref JSON loadBody decode: got %+v, %v", got, err)
	}
	for _, bad := range [][]byte{
		{wire.BinMagic, 0}, // no refs
		append([]byte{wire.BinMagic, 19}, one[:19]...),          // a short ref
		append([]byte{wire.BinMagic, 21}, append(one[:], 0)...), // a ref and a byte
		{wire.BinMagic, 40, 1, 2},                               // truncated
		loadBody{Refs: make([]cas.Ref, maxLoadBatch+1)}.bin(),   // one ref past the batch cap
		[]byte(`{"refs":["zz"]}`),
		[]byte(`{}`),
	} {
		if got, err := decodeLoadBody(&wire.Message{Payload: bad}); err == nil {
			t.Fatalf("load body % x decoded without error: %+v", bad, got)
		}
	}

	for _, c := range loadResps() {
		got, err := decodeLoadResp(&wire.Message{Payload: c.resp.bin()}, c.refs)
		if err != nil || !reflect.DeepEqual(got, c.resp) {
			t.Fatalf("loadResp binary round trip: got %+v, %v; want %+v", got, err, c.resp)
		}
		jm := &wire.Message{Topic: "kvs.load"}
		if err := jm.PackJSON(c.resp.jsonForm(loadBody{Refs: c.refs})); err != nil {
			t.Fatal(err)
		}
		if got, err = decodeLoadResp(jm, c.refs); err != nil || !reflect.DeepEqual(got, c.resp) {
			t.Fatalf("loadResp JSON decode: got %+v, %v; want %+v", got, err, c.resp)
		}
		if _, err := decodeLoadResp(&wire.Message{Payload: c.resp.bin()}, c.refs[1:]); err == nil {
			t.Fatalf("a %d-object response decoded for %d refs", len(c.refs), len(c.refs)-1)
		}
	}
	if js := (loadResp{Objects: [][]byte{{7}}}).jsonForm(loadBody{Refs: []cas.Ref{one}, Single: true}); !bytes.Equal(js.Data, []byte{7}) || js.Objects != nil {
		t.Fatalf("single-ref JSON response = %+v, want Data only", js)
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

	for _, fence := range fenceBodies() {
		gotFence, err := decodeFenceBody(&wire.Message{Payload: fence.bin()})
		if err != nil || !reflect.DeepEqual(gotFence, fence) {
			t.Fatalf("fenceBody %q round trip: got %+v, %v; want %+v", fence.Name, gotFence, err, fence)
		}
		jm, err := wire.NewRequest("kvs.fence", wire.NodeidAny, fence)
		if err != nil {
			t.Fatal(err)
		}
		if gotFence, err = decodeFenceBody(jm); err != nil || !reflect.DeepEqual(gotFence, fence) {
			t.Fatalf("fenceBody %q JSON decode: got %+v, %v; want %+v", fence.Name, gotFence, err, fence)
		}
	}
	// Counts beyond the bytes left fail before anything is sized by them.
	for _, bomb := range [][]byte{
		{wire.BinMagic, 0, 1, 0xff, 0xff, 0xff, 0xff, 0x0f},          // 2^32-1 entries
		{wire.BinMagic, 0, 1, 1, 0, 0xff, 0xff, 0xff, 0xff, 0x0f, 0}, // one entry, 2^32-1 ops
	} {
		if _, err := decodeFenceBody(&wire.Message{Payload: bomb}); err == nil {
			t.Fatalf("fence body % x decoded without error", bomb)
		}
	}
}

// fenceBodies are the fence batches the round-trip test and the fuzz
// seeds share: no entries, empty ops, delete ops, a nil object, object
// data that starts with the binary magic byte, and 256 entries. Each is
// in the form both decoders produce — nil, never empty, for absent
// slices, maps and object bytes.
func fenceBodies() []fenceBody {
	v1 := cas.NewValue([]byte(`"one"`)).Encode()
	magic := []byte{wire.BinMagic, 1, 2, 3}
	ref := func(b []byte) string { return cas.HashOf(b).String() }
	many := fenceBody{Name: "many", NProcs: 256}
	for i := 0; i < 256; i++ {
		many.Entries = append(many.Entries, fenceEntry{
			ID:  fmt.Sprintf("many/p%d", i),
			Ops: []Op{{Key: fmt.Sprintf("k.%d", i), Ref: ref(v1)}},
		})
	}
	many.Objects = map[string][]byte{ref(v1): v1}
	return []fenceBody{
		{Name: "empty", NProcs: 1},
		{Name: "one", NProcs: 1,
			Entries: []fenceEntry{{ID: "one/p0", Ops: []Op{{Key: "a.b", Ref: ref(v1)}, {Key: "a.c", Delete: true}}}},
			Objects: map[string][]byte{ref(v1): v1, ref(magic): magic}},
		{Name: "noops", NProcs: 2,
			Entries: []fenceEntry{{ID: "noops/p0"}, {ID: "noops/p1", Ops: []Op{{Key: "d", Delete: true}}}}},
		{Name: "nilobj", NProcs: 1,
			Entries: []fenceEntry{{ID: "nilobj/p0", Ops: []Op{{Key: "e", Ref: ref(nil)}}}},
			Objects: map[string][]byte{ref(nil): nil}},
		many,
	}
}

// loadBodies are the batched requests the round-trip test and the fuzz
// seeds share: one ref, a duplicated ref, and a full batch.
func loadBodies() []loadBody {
	var full []cas.Ref
	for i := 0; i < maxLoadBatch; i++ {
		full = append(full, cas.HashOf([]byte(fmt.Sprint(i))))
	}
	a, b := cas.HashOf([]byte("a")), cas.HashOf([]byte("b"))
	return []loadBody{{Refs: full[:1]}, {Refs: []cas.Ref{a, b, a}}, {Refs: full}}
}

// loadResps pairs requests with answers: every object present, some
// absent, one that starts with the binary magic byte, and none present.
func loadResps() []struct {
	refs []cas.Ref
	resp loadResp
} {
	v1 := cas.NewValue([]byte(`"one"`)).Encode()
	magic := []byte{wire.BinMagic, 1, 2, 3}
	dir := (&cas.Object{Kind: cas.KindDir, Dir: map[string]cas.Ref{"x": cas.HashOf(v1)}}).Encode()
	h := cas.HashOf
	return []struct {
		refs []cas.Ref
		resp loadResp
	}{
		{[]cas.Ref{h(v1)}, loadResp{Objects: [][]byte{v1}}},
		{[]cas.Ref{h(v1), h(dir), h(magic)}, loadResp{Objects: [][]byte{v1, dir, magic}}},
		{[]cas.Ref{h(v1), h(nil), h(dir)}, loadResp{Objects: [][]byte{v1, nil, dir}}},
		{[]cas.Ref{h(nil), h([]byte("gone"))}, loadResp{Objects: [][]byte{nil, nil}}},
	}
}

// FuzzFenceBody holds decodeFenceBody to two rules on any input: it
// never panics, and whatever it accepts, bin() then a decode yields the
// same body as the JSON codec's round trip of it.
func FuzzFenceBody(f *testing.F) {
	for _, body := range fenceBodies() {
		enc := []byte(body.bin())
		f.Add(enc)
		for _, n := range []int{1, 2, len(enc) / 2, len(enc) - 1} {
			f.Add(enc[:n])
		}
		for _, i := range []int{1, 2, len(enc) / 3, len(enc) - 1} {
			flipped := append([]byte(nil), enc...)
			flipped[i] ^= 0x80
			f.Add(flipped)
		}
		js, err := json.Marshal(body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(js)
	}
	f.Fuzz(checkFenceBody)
}

func checkFenceBody(t *testing.T, data []byte) {
	body, err := decodeFenceBody(&wire.Message{Topic: "kvs.fence", Payload: data})
	if err != nil {
		return
	}
	viaBin, err := decodeFenceBody(&wire.Message{Topic: "kvs.fence", Payload: body.bin()})
	if err != nil {
		t.Fatalf("decode of bin() of an accepted body: %v", err)
	}
	if !jsonCarries(body) {
		// JSON replaces invalid UTF-8 with U+FFFD, so such a body has no
		// JSON round trip to compare with; binary must still keep it.
		if !reflect.DeepEqual(canonFence(viaBin), canonFence(body)) {
			t.Fatalf("binary round trip changed the body:\n got %+v\nwant %+v", viaBin, body)
		}
		return
	}
	jm, err := wire.NewRequest("kvs.fence", wire.NodeidAny, body)
	if err != nil {
		t.Fatal(err)
	}
	viaJSON, err := decodeFenceBody(jm)
	if err != nil {
		t.Fatalf("JSON round trip of an accepted body: %v", err)
	}
	if !reflect.DeepEqual(canonFence(viaBin), canonFence(viaJSON)) {
		t.Fatalf("binary and JSON round trips differ:\nbinary %+v\n  json %+v", viaBin, viaJSON)
	}
}

// canonFence maps empty slices, maps and object bytes to nil: the two
// codecs agree on a body's content, not on nil versus empty.
func canonFence(b fenceBody) fenceBody {
	out := fenceBody{Name: b.Name, NProcs: b.NProcs}
	for _, e := range b.Entries {
		c := fenceEntry{ID: e.ID}
		if len(e.Ops) > 0 {
			c.Ops = e.Ops
		}
		out.Entries = append(out.Entries, c)
	}
	for k, v := range b.Objects {
		if out.Objects == nil {
			out.Objects = map[string][]byte{}
		}
		if len(v) == 0 {
			v = nil
		}
		out.Objects[k] = v
	}
	return out
}

// jsonCarries reports whether every string in b is valid UTF-8.
func jsonCarries(b fenceBody) bool {
	ok := utf8.ValidString(b.Name)
	for _, e := range b.Entries {
		ok = ok && utf8.ValidString(e.ID)
		for _, op := range e.Ops {
			ok = ok && utf8.ValidString(op.Key) && utf8.ValidString(op.Ref)
		}
	}
	for k := range b.Objects {
		ok = ok && utf8.ValidString(k)
	}
	return ok
}

// FuzzLoadBody holds the kvs.load codecs to their rules on any request
// and response payload: decoding never panics; a binary request whose
// ref field is not a whole number of references, and a binary response
// whose object count differs from the request's ref count, are errors;
// and whatever is accepted survives an encode/decode round trip.
func FuzzLoadBody(f *testing.F) {
	bodies := loadBodies()
	for i, c := range loadResps() {
		req := []byte(loadBody{Refs: c.refs}.bin())
		resp := []byte(c.resp.bin())
		f.Add(req, resp)
		f.Add(req[:len(req)-1], resp[:len(resp)-1])
		f.Add([]byte(bodies[i%len(bodies)].bin()), resp)
		js, err := json.Marshal(c.resp.jsonForm(loadBody{Refs: c.refs}))
		if err != nil {
			f.Fatal(err)
		}
		jreq, err := json.Marshal(loadBody{Refs: c.refs}.jsonForm())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(jreq, js)
	}
	f.Fuzz(checkLoadBody)
}

func checkLoadBody(t *testing.T, reqData, respData []byte) {
	refs := []cas.Ref{cas.HashOf([]byte("a")), cas.HashOf(nil)}
	req, err := decodeLoadBody(&wire.Message{Topic: "kvs.load", Payload: reqData})
	if n, ok := leadingField(reqData); ok && n%cas.RefLen != 0 && err == nil {
		t.Fatalf("a %d-byte ref field decoded: %+v", n, req)
	}
	if err == nil {
		if len(req.Refs) == 0 || len(req.Refs) > maxLoadBatch {
			t.Fatalf("a request naming %d refs decoded", len(req.Refs))
		}
		again, err := decodeLoadBody(&wire.Message{Payload: req.bin()})
		if err != nil || !reflect.DeepEqual(again.Refs, req.Refs) || again.Single {
			t.Fatalf("binary round trip: got %+v, %v; want %+v", again, err, req.Refs)
		}
		jm, err := wire.NewRequest("kvs.load", wire.NodeidAny, req.jsonForm())
		if err != nil {
			t.Fatal(err)
		}
		if again, err = decodeLoadBody(jm); err != nil || !reflect.DeepEqual(again.Refs, req.Refs) {
			t.Fatalf("JSON round trip: got %+v, %v; want %+v", again, err, req.Refs)
		}
		refs = req.Refs
	}

	resp, err := decodeLoadResp(&wire.Message{Topic: "kvs.load", Payload: respData}, refs)
	if n, ok := leadingCount(respData); ok && n != uint64(len(refs)) && err == nil {
		t.Fatalf("a %d-object response decoded for %d refs", n, len(refs))
	}
	if err != nil {
		return
	}
	if len(resp.Objects) != len(refs) {
		t.Fatalf("decoded %d objects for %d refs", len(resp.Objects), len(refs))
	}
	again, err := decodeLoadResp(&wire.Message{Payload: resp.bin()}, refs)
	if err != nil || !reflect.DeepEqual(again, resp) {
		t.Fatalf("binary round trip: got %+v, %v; want %+v", again, err, resp)
	}
}

// leadingField is the length a binary body's first field declares,
// when the body is binary and that field is whole.
func leadingField(payload []byte) (int, bool) {
	n, hdr, ok := leadingUvarint(payload)
	if !ok || n > uint64(len(payload)-1-hdr) {
		return 0, false
	}
	return int(n), true
}

// leadingCount is a binary body's first uvarint, when it has one.
func leadingCount(payload []byte) (uint64, bool) {
	n, _, ok := leadingUvarint(payload)
	return n, ok
}

func leadingUvarint(payload []byte) (n uint64, size int, ok bool) {
	if !wire.IsBinaryBody(payload) {
		return 0, 0, false
	}
	n, size = binary.Uvarint(payload[1:])
	return n, size, size > 0
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
	t.Run("fence", crossVersionFence)
}

// dialExternal attaches a JSON-only external caller to rank's broker:
// internal/client over a real socket, speaking what cmd/flux speaks.
func dialExternal(t *testing.T, s *session.Session, rank int) *extclient.Client {
	t.Helper()
	key := []byte("cross-version")
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
	ext, err := extclient.Dial(ln.Addr().String(), key)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ext.Close() })
	if err := <-accepted; err != nil {
		t.Fatal(err)
	}
	return ext
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
	ext := dialExternal(t, s, 4)
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

// crossVersionFence covers kvs.fence on mixed links: one fence whose
// participants are binary leaves under a JSON-only interior rank and a
// binary rank beside it, so batches reach the JSON rank binary, leave it
// JSON, and meet a binary batch at the root. Then an external JSON
// caller fences and commits against a binary broker, the way cmd/flux
// does, and must get JSON back.
func crossVersionFence(t *testing.T) {
	s := binKVSSession(t, 7, 2)
	s.Broker(1).SetBinaryBodies(false) // interior: parent of ranks 3 and 4
	for _, r := range []int{0, 2, 3, 4} {
		if !s.Broker(r).BinaryBodies() {
			t.Fatalf("rank %d is not on binary bodies", r)
		}
	}

	w := client(t, s, 0)
	if err := w.Put("xf.gone", "soon"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	ranks := []int{3, 4, 2} // two binary leaves under the JSON rank, one binary sibling
	shared := strings.Repeat("s", 4096)
	vers := make([]uint64, len(ranks))
	errs := make([]error, len(ranks))
	var wg sync.WaitGroup
	for i, rank := range ranks {
		c := client(t, s, rank)
		if err := c.Put(fmt.Sprintf("xf.p%d", i), strings.Repeat(string(rune('a'+i)), 4096)); err != nil {
			t.Fatal(err)
		}
		if err := c.Put("xf.shared", shared); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if err := c.Delete("xf.gone"); err != nil {
				t.Fatal(err)
			}
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vers[i], errs[i] = c.Fence("xfence", len(ranks))
		}(i)
	}
	wg.Wait()
	for i := range ranks {
		if errs[i] != nil || vers[i] != vers[0] {
			t.Fatalf("participant at rank %d: v%d, %v (rank %d got v%d)", ranks[i], vers[i], errs[i], ranks[0], vers[0])
		}
	}
	for _, rank := range []int{1, 6} { // the JSON rank, and a binary leaf no participant sits under
		c := client(t, s, rank)
		if err := c.WaitVersion(vers[0]); err != nil {
			t.Fatal(err)
		}
		for i := range ranks {
			var v string
			if err := c.Get(fmt.Sprintf("xf.p%d", i), &v); err != nil || v != strings.Repeat(string(rune('a'+i)), 4096) {
				t.Fatalf("rank %d: xf.p%d = %.8q..., %v", rank, i, v, err)
			}
		}
		var v string
		if err := c.Get("xf.shared", &v); err != nil || v != shared {
			t.Fatalf("rank %d: xf.shared = %.8q..., %v", rank, v, err)
		}
		if err := c.Get("xf.gone", nil); !ErrNotFound(err) {
			t.Fatalf("rank %d: deleted xf.gone: %v, want ENOENT", rank, err)
		}
	}

	ext := dialExternal(t, s, 4)
	ver := vers[0]
	for _, method := range []string{"fence", "commit"} {
		key := "xf.ext." + method
		data := cas.NewValue([]byte(`"` + method + `"`)).Encode()
		ref := cas.HashOf(data).String()
		if _, err := ext.RPC("kvs.put", wire.NodeidAny, map[string]any{"key": key, "ref": ref, "data": data}); err != nil {
			t.Fatal(err)
		}
		name := "xf-ext-" + method
		resp, err := ext.RPC("kvs."+method, wire.NodeidAny, map[string]any{
			"name":   name,
			"nprocs": 1,
			"entries": []map[string]any{{
				"id":  name + "/cli",
				"ops": []map[string]any{{"key": key, "ref": ref}},
			}},
		})
		if err != nil {
			t.Fatalf("external kvs.%s: %v", method, err)
		}
		if wire.IsBinaryBody(resp.Payload) {
			t.Fatalf("JSON kvs.%s was answered with a binary body", method)
		}
		var root rootBody
		if err := resp.UnpackJSON(&root); err != nil || root.Version != ver+1 {
			t.Fatalf("external kvs.%s = %+v, %v; want version %d", method, root, err, ver+1)
		}
		ver = root.Version
		c := client(t, s, 5)
		if err := c.WaitVersion(ver); err != nil {
			t.Fatal(err)
		}
		var v string
		if err := c.Get(key, &v); err != nil || v != method {
			t.Fatalf("%s = %q, %v; want %q", key, v, err, method)
		}
	}
}

// TestLoadBatchesThroughJSONInteriorRank faults a directory wider than
// one load batch through a JSON-only interior rank (rank 1, between the
// binary root and binary leaves 3 and 4), first with one reader per
// rank in turn and then with concurrent readers of overlapping keys at
// every rank. Every read must return the committed bytes, and the
// fault-in counters must match an all-binary session's: the encoding of
// a link changes no load and no batch.
func TestLoadBatchesThroughJSONInteriorRank(t *testing.T) {
	const entries = maxLoadBatch + 36
	run := func(t *testing.T, jsonInterior bool) (seqLoads, seqBatches, loads uint64) {
		s := binKVSSession(t, 7, 2)
		if jsonInterior {
			s.Broker(1).SetBinaryBodies(false)
		}
		w := client(t, s, 0)
		commit := func(dir string) (uint64, []string) {
			vals := make([]string, entries)
			for i := range vals {
				vals[i] = fmt.Sprintf("%s-%d-%s", dir, i, strings.Repeat("v", i))
				if err := w.Put(fmt.Sprintf("%s.k%03d", dir, i), vals[i]); err != nil {
					t.Fatal(err)
				}
			}
			ver, err := w.Commit()
			if err != nil {
				t.Fatal(err)
			}
			return ver, vals
		}
		read := func(c *Client, dir string, vals []string, from, to int) error {
			for i := from; i < to; i++ {
				var v string
				if err := c.Get(fmt.Sprintf("%s.k%03d", dir, i), &v); err != nil {
					return err
				}
				if v != vals[i] {
					return fmt.Errorf("%s.k%03d = %q, want %q", dir, i, v, vals[i])
				}
			}
			return nil
		}
		totals := func() (loads, batches uint64) {
			for r := 1; r < 7; r++ {
				_, l, b := kvsStats(t, s, r)
				loads, batches = loads+l, batches+b
			}
			return loads, batches
		}

		ver, vals := commit("seq")
		for r := 1; r < 7; r++ {
			c := client(t, s, r)
			if err := c.WaitVersion(ver); err != nil {
				t.Fatal(err)
			}
			if err := read(c, "seq", vals, 0, entries); err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
		}
		seqLoads, seqBatches = totals()

		ver, vals = commit("par")
		ranges := [][2]int{{0, entries * 2 / 3}, {entries / 3, entries}, {entries / 4, entries * 3 / 4}}
		errs := make(chan error, 6*len(ranges))
		var wg sync.WaitGroup
		for r := 1; r < 7; r++ {
			for _, rg := range ranges {
				c := client(t, s, r)
				wg.Add(1)
				go func(r int, rg [2]int) {
					defer wg.Done()
					if err := c.WaitVersion(ver); err != nil {
						errs <- err
						return
					}
					if err := read(c, "par", vals, rg[0], rg[1]); err != nil {
						errs <- fmt.Errorf("rank %d: %w", r, err)
					}
				}(r, rg)
			}
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		loads, _ = totals()
		return seqLoads, seqBatches, loads
	}

	var want [3]uint64
	t.Run("binary", func(t *testing.T) {
		want[0], want[1], want[2] = run(t, false)
	})
	t.Run("json-interior", func(t *testing.T) {
		loads, batches, all := run(t, true)
		if loads != want[0] || batches != want[1] {
			t.Fatalf("sequential reads: %d loads in %d batches; the all-binary session took %d in %d", loads, batches, want[0], want[1])
		}
		if all != want[2] {
			t.Fatalf("after concurrent reads: %d loads; the all-binary session took %d", all, want[2])
		}
	})
	// Every rank below the root faults in each object exactly once: per
	// commit, the new root directory, the committed directory and its
	// values.
	if perRank := uint64(2 * (2 + entries)); want[2] != 6*perRank {
		t.Fatalf("all-binary session faulted in %d objects, want %d (6 ranks x %d)", want[2], 6*perRank, perRank)
	}
}

// TestSetrootBody: the binary kvs.setroot body round-trips the empty
// and a real root, the JSON form decodes to the same values, and a
// reference field that is neither empty nor 20 bytes, or a truncated
// body, is an error.
func TestSetrootBody(t *testing.T) {
	ref := cas.HashOf([]byte("root"))
	for _, tc := range []struct {
		root    cas.Ref
		version uint64
	}{{cas.Ref{}, 0}, {cas.Ref{}, 7}, {ref, 1}, {ref, 1 << 40}} {
		bin := &wire.Message{Payload: setrootBin(tc.root, tc.version)}
		if !wire.IsBinaryBody(bin.Payload) {
			t.Fatalf("setrootBin(%s, %d) is not a binary body", tc.root, tc.version)
		}
		if len(bin.Payload) > 1+1+cas.RefLen+binary.MaxVarintLen64 {
			t.Fatalf("setrootBin is %d bytes", len(bin.Payload))
		}
		js, err := wire.NewResponse(&wire.Message{Type: wire.Request, Topic: "kvs.setroot"},
			rootBody{Root: refString(tc.root), Version: tc.version})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []*wire.Message{bin, js} {
			root, version, err := decodeSetroot(m)
			if err != nil || root != tc.root || version != tc.version {
				t.Fatalf("decodeSetroot(%q) = %s, %d, %v; want %s, %d", m.Payload, root, version, err, tc.root, tc.version)
			}
		}
	}
	w := wire.NewBinWriter(16)
	w.Bytes([]byte("short"))
	w.Uint(3)
	for _, bad := range [][]byte{w.Finish(), setrootBin(ref, 9)[:10], []byte(`{"root":"zz","version":1}`)} {
		if _, _, err := decodeSetroot(&wire.Message{Payload: bad}); err == nil {
			t.Fatalf("decodeSetroot(%q) accepted a malformed body", bad)
		}
	}
}

// TestSetrootMixedEncodings: a binary master's setroot is decoded by a
// JSON-only slave, and a JSON-only master's by binary slaves, both by
// the module (kvs.sync parks until the setroot lands: no heartbeat
// runs, so no root poll can stand in) and by Client.Watch.
func TestSetrootMixedEncodings(t *testing.T) {
	for _, jsonRank := range []int{0, 3} {
		t.Run(fmt.Sprintf("json-rank-%d", jsonRank), func(t *testing.T) {
			s := newKVSSession(t, 4, 2)
			s.Broker(jsonRank).SetBinaryBodies(false)
			wc := client(t, s, 3)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ch, err := wc.Watch(ctx, "mixed.key")
			if err != nil {
				t.Fatal(err)
			}
			<-ch // initial state
			w := client(t, s, 1)
			for v := 1; v <= 3; v++ {
				if err := w.Put("mixed.key", v); err != nil {
					t.Fatal(err)
				}
				ver, err := w.Commit()
				if err != nil {
					t.Fatal(err)
				}
				for r := 0; r < 4; r++ {
					if err := client(t, s, r).WaitVersion(ver); err != nil {
						t.Fatalf("rank %d: wait for version %d: %v", r, ver, err)
					}
				}
				select {
				case u := <-ch:
					if u.Version != ver || string(u.Val) != fmt.Sprint(v) {
						t.Fatalf("watch update %+v, want version %d value %d", u, ver, v)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("no watch update for version %d", ver)
				}
			}
		})
	}
}
