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
	"fluxgo/internal/modules/barrier"
	"fluxgo/internal/session"
	"fluxgo/internal/wire"
)

// TestBinBodyRoundTrip checks every binary-coded kvs body survives an
// encode/decode cycle; that the decoders of requests an external tool
// sends (put, fence) also accept their JSON form; and that the bodies
// only brokers send (load requests and responses, get responses) have
// no JSON form.
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
	}
	one := cas.HashOf([]byte("one"))
	for _, bad := range [][]byte{
		{wire.BinMagic, 0}, // no refs
		append([]byte{wire.BinMagic, 19}, one[:19]...),          // a short ref
		append([]byte{wire.BinMagic, 21}, append(one[:], 0)...), // a ref and a byte
		{wire.BinMagic, 40, 1, 2},                               // truncated
		loadBody{Refs: make([]cas.Ref, maxLoadBatch+1)}.bin(),   // one ref past the batch cap
		[]byte(`{"refs":["` + one.String() + `"]}`),             // JSON
		[]byte(`{"ref":"` + one.String() + `"}`),
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
		if _, err := decodeLoadResp(&wire.Message{Payload: c.resp.bin()}, c.refs[1:]); err == nil {
			t.Fatalf("a %d-object response decoded for %d refs", len(c.refs), len(c.refs)-1)
		}
	}
	if _, err := decodeLoadResp(&wire.Message{Payload: []byte(`{"objects":{}}`)}, []cas.Ref{one}); err == nil {
		t.Fatal("a JSON load response decoded")
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
		got, err := decodeGetResp(&wire.Message{Topic: "kvs.get", Payload: want.bin()})
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("getResp round trip: got %+v, %v; want %+v", got, err, want)
		}
	}
	for _, bad := range [][]byte{
		{wire.BinMagic, 3, 1, 2, 3, 0, 0},                // a 3-byte reference
		[]byte(`{"ref":"` + one.String() + `","val":1}`), // JSON
	} {
		if _, err := decodeGetResp(&wire.Message{Payload: bad}); err == nil {
			t.Fatalf("get response %q decoded without error", bad)
		}
	}

	// An external tool's JSON put decodes through the sniff-miss path.
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

// FuzzLoadBody holds the kvs.load codec to its rules on any request and
// response payload: decoding never panics; a body that is not binary, a
// request whose ref field is not a whole number of references, and a
// response whose object count differs from the request's ref count are
// errors; and whatever is accepted survives an encode/decode round trip.
// The JSON-shaped seeds are what a tool might send on the topic.
func FuzzLoadBody(f *testing.F) {
	bodies := loadBodies()
	for i, c := range loadResps() {
		req := []byte(loadBody{Refs: c.refs}.bin())
		resp := []byte(c.resp.bin())
		f.Add(req, resp)
		f.Add(req[:len(req)-1], resp[:len(resp)-1])
		f.Add([]byte(bodies[i%len(bodies)].bin()), resp)
		hex := make([]string, len(c.refs))
		objects := map[string][]byte{}
		for j, ref := range c.refs {
			hex[j] = ref.String()
			objects[hex[j]] = c.resp.Objects[j]
		}
		jreq, err := json.Marshal(map[string][]string{"refs": hex})
		if err != nil {
			f.Fatal(err)
		}
		jresp, err := json.Marshal(map[string]any{"objects": objects})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(jreq, jresp)
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
		if !wire.IsBinaryBody(reqData) {
			t.Fatalf("a non-binary request decoded: %+v", req)
		}
		if len(req.Refs) == 0 || len(req.Refs) > maxLoadBatch {
			t.Fatalf("a request naming %d refs decoded", len(req.Refs))
		}
		again, err := decodeLoadBody(&wire.Message{Payload: req.bin()})
		if err != nil || !reflect.DeepEqual(again, req) {
			t.Fatalf("binary round trip: got %+v, %v; want %+v", again, err, req)
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
	if !wire.IsBinaryBody(respData) {
		t.Fatalf("a non-binary response decoded: %+v", resp)
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

// binKVSSession is newKVSSession with every link through the wire
// codec, so binary bodies cross real frames.
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
// codec-linked tree.
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

// TestLoadBatchesThroughJSONInteriorRank faults a directory wider than
// one load batch through interior rank 1 (between the root and leaves 3
// and 4), first with one reader per rank in turn and then with
// concurrent readers of overlapping keys at every rank. Every read must
// return the committed bytes, and every rank must fault in each object
// exactly once.
func TestLoadBatchesThroughJSONInteriorRank(t *testing.T) {
	const entries = maxLoadBatch + 36
	t.Run("binary", func(t *testing.T) {
		s := binKVSSession(t, 7, 2)
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
		// Every rank below the root faults in each object exactly once:
		// per commit, the new root directory, the committed directory and
		// its values.
		var loads uint64
		for r := 1; r < 7; r++ {
			_, l, _ := kvsStats(t, s, r)
			loads += l
		}
		if perRank := uint64(2 * (2 + entries)); loads != 6*perRank {
			t.Fatalf("session faulted in %d objects, want %d (6 ranks x %d)", loads, 6*perRank, perRank)
		}
	})
}

// TestSetrootBody: the binary kvs.setroot body round-trips the empty
// and a real root, and a reference field that is neither empty nor 20
// bytes, a truncated body, or a JSON body is an error.
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
		root, version, err := decodeSetroot(bin)
		if err != nil || root != tc.root || version != tc.version {
			t.Fatalf("decodeSetroot(%q) = %s, %d, %v; want %s, %d", bin.Payload, root, version, err, tc.root, tc.version)
		}
	}
	w := wire.NewBinWriter(16)
	w.Bytes([]byte("short"))
	w.Uint(3)
	for _, bad := range [][]byte{w.Finish(), setrootBin(ref, 9)[:10], []byte(`{"root":"` + ref.String() + `","version":1}`)} {
		if _, _, err := decodeSetroot(&wire.Message{Payload: bad}); err == nil {
			t.Fatalf("decodeSetroot(%q) accepted a malformed body", bad)
		}
	}
}

// TestSetrootMixedEncodings: the master's binary setroots and a JSON
// setroot an external caller at rank jsonRank publishes through cmb.pub
// meet on one topic. Only the master's are acted on, both by the module
// (kvs.sync parks until the setroot lands: no heartbeat runs, so no root
// poll can stand in) and by Client.Watch.
func TestSetrootMixedEncodings(t *testing.T) {
	for _, jsonRank := range []int{0, 3} {
		t.Run(fmt.Sprintf("json-rank-%d", jsonRank), func(t *testing.T) {
			s := newKVSSession(t, 4, 2)
			ext := dialExternal(t, s, jsonRank)
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
				if ver != uint64(v) {
					t.Fatalf("commit %d produced version %d", v, ver)
				}
				root, _, err := w.RootRef()
				if err != nil {
					t.Fatal(err)
				}
				forged := map[string]any{"root": root, "version": ver + 100}
				if _, err := ext.RPC(wire.TopicPub, wire.NodeidAny, map[string]any{"topic": "kvs.setroot", "payload": forged}); err != nil {
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

// TestBrokerOnlyBodiesRejectJSON sends, from an external JSON caller,
// the two requests only brokers send (kvs.load, barrier.enter), each of
// which must be answered EINVAL, and publishes a JSON kvs.setroot naming
// a real object at a version 100 ahead, which no rank may adopt.
func TestBrokerOnlyBodiesRejectJSON(t *testing.T) {
	s, err := session.New(session.Options{
		Size:    4,
		Arity:   2,
		Modules: []session.ModuleFactory{Factory(ModuleConfig{}), barrier.Factory},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	w := client(t, s, 1)
	if err := w.Put("edge.key", "v"); err != nil {
		t.Fatal(err)
	}
	ver, err := w.Commit()
	if err != nil {
		t.Fatal(err)
	}
	root, _, err := w.RootRef()
	if err != nil {
		t.Fatal(err)
	}
	ext := dialExternal(t, s, 3)
	if _, err := ext.RPC("kvs.load", wire.NodeidAny, map[string][]string{"refs": {root}}); !wire.IsErrnum(err, wire.ErrnoInval) {
		t.Fatalf("JSON kvs.load: %v, want EINVAL", err)
	}
	if _, err := ext.RPC("barrier.enter", wire.NodeidAny, map[string]any{"name": "edge", "nprocs": 1}); !wire.IsErrnum(err, wire.ErrnoInval) {
		t.Fatalf("JSON barrier.enter: %v, want EINVAL", err)
	}

	// Each rank's handle sees the forged event before it asks its module
	// for the version: a module receives an event before any request a
	// local handle sends after seeing it.
	clients := make([]*Client, 4)
	subs := make([]*broker.Subscription, 4)
	for r := range clients {
		clients[r] = client(t, s, r)
		if err := clients[r].WaitVersion(ver); err != nil {
			t.Fatal(err)
		}
		if subs[r], err = clients[r].Handle().Subscribe("kvs.setroot"); err != nil {
			t.Fatal(err)
		}
		defer subs[r].Close()
	}
	forged := map[string]any{"root": root, "version": ver + 100}
	if _, err := ext.RPC(wire.TopicPub, wire.NodeidAny, map[string]any{"topic": "kvs.setroot", "payload": forged}); err != nil {
		t.Fatal(err)
	}
	for r, c := range clients {
		select {
		case <-subs[r].Chan():
		case <-time.After(5 * time.Second):
			t.Fatalf("rank %d never saw the forged setroot", r)
		}
		if got, err := c.GetVersion(); err != nil || got != ver {
			t.Fatalf("rank %d: version %d, %v after a forged setroot; want %d", r, got, err, ver)
		}
	}
}
