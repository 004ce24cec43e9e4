package wire

import (
	"bytes"
	"testing"
)

func TestBinBodyRoundTrip(t *testing.T) {
	w := NewBinWriter(64)
	w.String("files.conf.hosts")
	w.Bytes([]byte{0, 1, 2, 0xB3, 0xFF})
	w.Uint(1 << 40)
	w.StringSlice([]string{"a", "", "long-ref-0123456789abcdef"})
	w.BytesMap(map[string][]byte{"k1": []byte("v1"), "k2": nil})
	body := w.Finish()

	if !IsBinaryBody(body) {
		t.Fatal("finished body does not sniff as binary")
	}
	r, ok := NewBinReader(body)
	if !ok {
		t.Fatal("reader refused a binary body")
	}
	if got := r.String(); got != "files.conf.hosts" {
		t.Fatalf("string field = %q", got)
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte{0, 1, 2, 0xB3, 0xFF}) {
		t.Fatalf("bytes field = %x", got)
	}
	if got := r.Uint(); got != 1<<40 {
		t.Fatalf("uint field = %d", got)
	}
	if got := r.StringSlice(); len(got) != 3 || got[2] != "long-ref-0123456789abcdef" {
		t.Fatalf("string slice = %q", got)
	}
	m := r.BytesMap()
	if len(m) != 2 || string(m["k1"]) != "v1" {
		t.Fatalf("bytes map = %v", m)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("clean decode reported %v", err)
	}
}

// TestBinReaderSniff: JSON bodies are refused so callers fall back.
func TestBinReaderSniff(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte(`{"key":"v"}`), []byte(`[1]`), []byte(`"s"`)} {
		if _, ok := NewBinReader(payload); ok {
			t.Fatalf("payload %q sniffed as binary", payload)
		}
		if IsBinaryBody(payload) {
			t.Fatalf("IsBinaryBody(%q) = true", payload)
		}
	}
}

// TestBinReaderTruncation: every truncation point surfaces through Err
// instead of panicking or silently zero-filling.
func TestBinReaderTruncation(t *testing.T) {
	w := NewBinWriter(32)
	w.String("topic")
	w.Bytes([]byte("payload"))
	full := w.Finish()
	for cut := 1; cut < len(full); cut++ {
		r, ok := NewBinReader(full[:cut])
		if !ok {
			t.Fatalf("cut %d: lost the magic byte", cut)
		}
		s := r.String()
		b := r.Bytes()
		if r.Err() == nil && (s != "topic" || !bytes.Equal(b, []byte("payload"))) {
			t.Fatalf("cut %d: clean decode of truncated body (%q, %q)", cut, s, b)
		}
	}
}

// TestBinReaderBogusCounts: a corrupt count larger than the remaining
// body fails fast instead of allocating gigabytes.
func TestBinReaderBogusCounts(t *testing.T) {
	body := append([]byte{BinMagic}, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F) // huge uvarint
	r, _ := NewBinReader(body)
	if ss := r.StringSlice(); ss != nil {
		t.Fatalf("bogus count yielded %d strings", len(ss))
	}
	if r.Err() == nil {
		t.Fatal("bogus count not reported")
	}
	r2, _ := NewBinReader(body)
	if m := r2.BytesMap(); m != nil {
		t.Fatalf("bogus count yielded %d map entries", len(m))
	}
	if r2.Err() == nil {
		t.Fatal("bogus map count not reported")
	}
}

// TestBinBytesCopiedOut: decoded byte fields survive the payload buffer
// being recycled (the pooled receive-buffer contract).
func TestBinBytesCopiedOut(t *testing.T) {
	w := NewBinWriter(16)
	w.Bytes([]byte("keepme"))
	body := w.Finish()
	r, _ := NewBinReader(body)
	got := r.Bytes()
	for i := range body {
		body[i] = 0xEE
	}
	if string(got) != "keepme" {
		t.Fatalf("decoded bytes alias the payload: %q", got)
	}
}

// TestBinView: View reads a field in place — no copy, so a change to
// the payload shows through — capped at the field, so an append to it
// cannot overwrite the next field; an empty field reads nil and a field
// longer than the body is a decode error.
func TestBinView(t *testing.T) {
	w := NewBinWriter(16)
	w.Bytes([]byte("view"))
	w.Bytes(nil)
	w.String("next")
	body := w.Finish()
	r, _ := NewBinReader(body)
	got := r.View()
	if string(got) != "view" || cap(got) != len(got) {
		t.Fatalf("View = %q (cap %d), want %q capped at its length", got, cap(got), "view")
	}
	if empty := r.View(); empty != nil {
		t.Fatalf("empty field viewed as %q, want nil", empty)
	}
	_ = append(got, "XXXX"...)
	if next := r.String(); next != "next" || r.Err() != nil {
		t.Fatalf("field after the views = %q, %v", next, r.Err())
	}
	body[2] = 'V'
	if string(got) != "View" {
		t.Fatalf("View copied the payload: %q after it changed", got)
	}

	short, _ := NewBinReader([]byte{BinMagic, 5, 'a'})
	if b := short.View(); b != nil || short.Err() == nil {
		t.Fatalf("overlong field viewed as %q, err %v", b, short.Err())
	}
}

// TestRawBodyPassthrough: RawBody payloads ride the JSON constructors
// verbatim — how binary bodies reach NewRequest/NewResponse.
func TestRawBodyPassthrough(t *testing.T) {
	w := NewBinWriter(8)
	w.String("x")
	body := w.Finish()
	m, err := NewRequest("kvs.put", NodeidAny, RawBody(body))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.Payload, body) {
		t.Fatalf("payload %x != raw body %x", m.Payload, body)
	}
}
