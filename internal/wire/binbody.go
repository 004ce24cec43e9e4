package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Binary body codec (codec v3 payloads).
//
// JSON request/response bodies dominate the cost of the hot services
// (kvs.put/load/get/fence, barrier.enter, cmb.pub): reflection-driven
// marshal on the way in, map allocation and base64 payload decode on
// the way out.
// This codec replaces the *body* encoding only — the frame header and
// framing stay byte-identical to wire v2/v3, so golden-frame
// compatibility is untouched and every other service keeps JSON.
//
// A binary body is the BinMagic byte followed by positional
// uvarint-length-prefixed fields; the schema is implicit in the
// reader/writer call sequence, exactly like the frame codec itself.
// Brokers send the hot bodies in this form only. Because JSON bodies
// always start with an ASCII byte ('{', '[', '"', a digit, ...), the
// decoder of a topic an external tool also sends (kvs.get, cmb.pub, ...)
// sniffs the first byte to accept that tool's JSON; a topic only brokers
// send rejects anything but a binary body.
const BinMagic = 0xB3

// IsBinaryBody reports whether payload carries a binary-coded body.
func IsBinaryBody(payload []byte) bool {
	return len(payload) > 0 && payload[0] == BinMagic
}

// errBinTruncated is reported when a binary body ends mid-field.
var errBinTruncated = errors.New("wire: truncated binary body")

// BinWriter appends positional fields to a binary body. The zero value
// is not ready; use NewBinWriter, then call the Append methods in the
// field order the matching reader expects, and Finish for the payload.
type BinWriter struct {
	buf []byte
}

// NewBinWriter starts a binary body with room for sizeHint bytes.
func NewBinWriter(sizeHint int) *BinWriter {
	w := &BinWriter{buf: make([]byte, 0, sizeHint+1)}
	w.buf = append(w.buf, BinMagic)
	return w
}

// String appends a length-prefixed string field.
func (w *BinWriter) String(s string) {
	w.buf = binary.AppendUvarint(w.buf, uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Bytes appends a length-prefixed byte field.
func (w *BinWriter) Bytes(b []byte) {
	w.buf = binary.AppendUvarint(w.buf, uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// Uint appends a uvarint field.
func (w *BinWriter) Uint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// StringSlice appends a count-prefixed sequence of string fields.
func (w *BinWriter) StringSlice(ss []string) {
	w.buf = binary.AppendUvarint(w.buf, uint64(len(ss)))
	for _, s := range ss {
		w.String(s)
	}
}

// BytesMap appends a count-prefixed sequence of key/value fields.
func (w *BinWriter) BytesMap(m map[string][]byte) {
	w.buf = binary.AppendUvarint(w.buf, uint64(len(m)))
	for k, v := range m {
		w.String(k)
		w.Bytes(v)
	}
}

// Finish returns the encoded body, ready to ship as a request or
// response payload (see RawBody).
func (w *BinWriter) Finish() []byte { return w.buf }

// BinReader decodes the positional fields of a binary body. Field reads
// after a decode error return zero values; check Err once at the end,
// mirroring the errors.Join style of batched validation.
type BinReader struct {
	data []byte
	err  error
}

// NewBinReader sniffs payload: ok is false when it does not carry a
// binary body (the caller falls back to JSON). The reader aliases
// payload; Bytes/BytesMap copy out, so decoded values are safe to
// retain even when payload lives in a pooled receive buffer. View does
// not: see its contract.
func NewBinReader(payload []byte) (*BinReader, bool) {
	if !IsBinaryBody(payload) {
		return nil, false
	}
	return &BinReader{data: payload[1:]}, true
}

func (r *BinReader) fail() {
	if r.err == nil {
		r.err = errBinTruncated
	}
}

func (r *BinReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.data = r.data[n:]
	return v
}

func (r *BinReader) take(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.data)) {
		r.fail()
		return nil
	}
	b := r.data[:n]
	r.data = r.data[n:]
	return b
}

// String reads a length-prefixed string field.
func (r *BinReader) String() string {
	return string(r.take(r.uvarint()))
}

// Bytes reads a length-prefixed byte field, copied out of the payload.
func (r *BinReader) Bytes() []byte {
	b := r.take(r.uvarint())
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// View reads a length-prefixed byte field without copying it: the
// result aliases the payload and is valid only while the payload is.
// It is for a caller that copies what it keeps anyway (a store insert,
// say) and holds the message until it is done with the field. An empty
// field reads as nil.
func (r *BinReader) View() []byte {
	b := r.take(r.uvarint())
	if len(b) == 0 {
		return nil
	}
	return b[:len(b):len(b)]
}

// Fixed reads a length-prefixed byte field of exactly len(dst) bytes
// into dst — a fixed-size field (a hash, say) without Bytes' copy-out
// allocation. Any other length is a decode error.
func (r *BinReader) Fixed(dst []byte) {
	b := r.take(r.uvarint())
	if r.err == nil && len(b) != len(dst) {
		r.fail()
		return
	}
	copy(dst, b)
}

// Uint reads a uvarint field.
func (r *BinReader) Uint() uint64 { return r.uvarint() }

// Count reads the element count of a count-prefixed sequence. Every
// element takes at least one byte, so a count beyond the bytes left is
// a decode error — caught here, before the caller sizes an allocation
// by it.
func (r *BinReader) Count() int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.data)) {
		r.fail()
		return 0
	}
	return int(n)
}

// StringSlice reads a count-prefixed sequence of string fields.
func (r *BinReader) StringSlice() []string {
	n := r.Count()
	if n == 0 {
		return nil
	}
	ss := make([]string, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		ss = append(ss, r.String())
	}
	return ss
}

// BytesMap reads a count-prefixed sequence of key/value fields.
func (r *BinReader) BytesMap() map[string][]byte {
	n := r.Count()
	if n == 0 {
		return nil
	}
	m := make(map[string][]byte, n)
	for i := 0; i < n && r.err == nil; i++ {
		k := r.String()
		m[k] = r.Bytes()
	}
	return m
}

// Err returns the first decode error, wrapped with the remaining-field
// context, or nil after a clean decode.
func (r *BinReader) Err() error {
	if r.err != nil {
		return fmt.Errorf("%w (%d bytes left)", r.err, len(r.data))
	}
	return nil
}

// RawBody marks a payload as already encoded: PackJSON (and therefore
// NewRequest/NewResponse) installs it verbatim instead of JSON-encoding
// it. It is how binary-coded bodies ride the existing message
// constructors.
type RawBody []byte
