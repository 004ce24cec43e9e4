package kvs

import (
	"fmt"

	"fluxgo/internal/cas"
	"fluxgo/internal/wire"
)

// Binary-coded (codec v3) forms of the hot kvs wire bodies. A broker
// encodes them unless the join handshake found a JSON-only parent (its
// BinaryBodies flag); decoding always sniffs, so binary and JSON peers
// interoperate on the same link, and responses follow the encoding of
// the request that produced them.

func (b putBody) bin() wire.RawBody {
	w := wire.NewBinWriter(len(b.Key) + len(b.Ref) + len(b.Data) + 8)
	w.String(b.Key)
	w.String(b.Ref)
	w.Bytes(b.Data)
	return w.Finish()
}

// setrootBin is the binary kvs.setroot event body: the root's raw
// reference bytes (none while the store is empty), then the version.
// Every rank decodes every setroot, so the body carries no hex and no
// JSON.
func setrootBin(root cas.Ref, version uint64) wire.RawBody {
	w := wire.NewBinWriter(cas.RefLen + 12)
	if root.IsZero() {
		w.Bytes(nil)
	} else {
		w.Bytes(root[:])
	}
	w.Uint(version)
	return w.Finish()
}

// decodeSetroot reads a kvs.setroot event body in either encoding: the
// binary form, or the JSON rootBody a JSON-only master publishes.
func decodeSetroot(m *wire.Message) (root cas.Ref, version uint64, err error) {
	if r, ok := wire.NewBinReader(m.Payload); ok {
		raw := r.View()
		version = r.Uint()
		if err := r.Err(); err != nil {
			return root, 0, err
		}
		switch len(raw) {
		case 0:
		case cas.RefLen:
			copy(root[:], raw)
		default:
			return root, 0, fmt.Errorf("kvs: setroot ref field of %d bytes, want 0 or %d", len(raw), cas.RefLen)
		}
		return root, version, nil
	}
	var body rootBody
	if err := m.UnpackJSON(&body); err != nil {
		return root, 0, err
	}
	root, err = parseRootRef(body.Root)
	return root, body.Version, err
}

func decodePutBody(m *wire.Message) (body putBody, err error) {
	if r, ok := wire.NewBinReader(m.Payload); ok {
		body.Key = r.String()
		body.Ref = r.String()
		body.Data = r.Bytes()
		return body, r.Err()
	}
	err = m.UnpackJSON(&body)
	return body, err
}

// bin sends the batch as one field of len(Refs) raw 20-byte references,
// with no hex form built for any of them.
func (b loadBody) bin() wire.RawBody {
	raw := make([]byte, 0, len(b.Refs)*cas.RefLen)
	for _, ref := range b.Refs {
		raw = append(raw, ref[:]...)
	}
	w := wire.NewBinWriter(len(raw) + 8)
	w.Bytes(raw)
	return w.Finish()
}

// jsonForm is the hex form a JSON-only peer reads.
func (b loadBody) jsonForm() loadBodyJSON {
	hex := make([]string, len(b.Refs))
	for i, ref := range b.Refs {
		hex[i] = ref.String()
	}
	return loadBodyJSON{Refs: hex}
}

// decodeLoadBody accepts either encoding. A request naming no reference
// or more than maxLoadBatch (fetchBatch never sends more), a malformed
// hex reference, or a raw field whose length is not a multiple of
// cas.RefLen is an error.
func decodeLoadBody(m *wire.Message) (body loadBody, err error) {
	if r, ok := wire.NewBinReader(m.Payload); ok {
		raw := r.View()
		if err := r.Err(); err != nil {
			return body, err
		}
		if len(raw)%cas.RefLen != 0 {
			return body, fmt.Errorf("kvs: load refs field of %d bytes is not a multiple of %d", len(raw), cas.RefLen)
		}
		if err := checkLoadCount(len(raw) / cas.RefLen); err != nil {
			return body, err
		}
		body.Refs = make([]cas.Ref, len(raw)/cas.RefLen)
		for i := range body.Refs {
			copy(body.Refs[i][:], raw[i*cas.RefLen:])
		}
		return body, nil
	}
	var j loadBodyJSON
	if err = m.UnpackJSON(&j); err != nil {
		return body, err
	}
	hex := j.Refs
	if len(hex) == 0 {
		hex, body.Single = []string{j.Ref}, true
	}
	if err := checkLoadCount(len(hex)); err != nil {
		return body, err
	}
	body.Refs = make([]cas.Ref, len(hex))
	for i, h := range hex {
		if body.Refs[i], err = cas.ParseRef(h); err != nil {
			return loadBody{}, err
		}
	}
	return body, nil
}

func checkLoadCount(n int) error {
	if n == 0 || n > maxLoadBatch {
		return fmt.Errorf("kvs: load of %d refs, want 1 to %d", n, maxLoadBatch)
	}
	return nil
}

// bin lays the objects out as a count and then one field per requested
// reference, in request order; an empty field marks an absent object
// (an encoded object is never empty).
func (b loadResp) bin() wire.RawBody {
	n := 8
	for _, o := range b.Objects {
		n += len(o) + 4
	}
	w := wire.NewBinWriter(n)
	w.Uint(uint64(len(b.Objects)))
	for _, o := range b.Objects {
		w.Bytes(o)
	}
	return w.Finish()
}

// jsonForm is the form a JSON-only requester reads: Data for its
// single-ref request, else the objects it asked for keyed by hex ref.
func (b loadResp) jsonForm(req loadBody) loadRespJSON {
	if req.Single {
		return loadRespJSON{Data: b.Objects[0]}
	}
	objects := make(map[string][]byte, len(b.Objects))
	for i, o := range b.Objects {
		if o != nil {
			objects[req.Refs[i].String()] = o
		}
	}
	return loadRespJSON{Objects: objects}
}

// decodeLoadResp decodes the answer to a batched request for refs into
// request order. A binary answer's objects alias m.Payload (the caller
// copies what it keeps and holds m until then); one whose count differs
// from len(refs) is an error.
func decodeLoadResp(m *wire.Message, refs []cas.Ref) (body loadResp, err error) {
	if r, ok := wire.NewBinReader(m.Payload); ok {
		n := r.Count()
		if err := r.Err(); err != nil {
			return body, err
		}
		if n != len(refs) {
			return body, fmt.Errorf("kvs: load response carries %d objects for %d refs", n, len(refs))
		}
		body.Objects = make([][]byte, n)
		for i := range body.Objects {
			body.Objects[i] = r.View()
		}
		return body, r.Err()
	}
	var j loadRespJSON
	if err = m.UnpackJSON(&j); err != nil {
		return body, err
	}
	body.Objects = make([][]byte, len(refs))
	for i, ref := range refs {
		if o := j.Objects[ref.String()]; len(o) > 0 {
			body.Objects[i] = o
		}
	}
	return body, nil
}

func (b getBody) bin() wire.RawBody {
	w := wire.NewBinWriter(len(b.Key) + len(b.Root) + 4)
	w.String(b.Key)
	w.String(b.Root)
	return w.Finish()
}

func decodeGetBody(m *wire.Message) (body getBody, err error) {
	if r, ok := wire.NewBinReader(m.Payload); ok {
		body.Key = r.String()
		body.Root = r.String()
		return body, r.Err()
	}
	err = m.UnpackJSON(&body)
	return body, err
}

// bin carries the reference as its 20 raw bytes, not hex, and the value
// without JSON's validate-and-compact pass over it.
func (b getResp) bin() wire.RawBody {
	n := cas.RefLen + len(b.Val) + 8
	for _, s := range b.Dir {
		n += len(s) + 2
	}
	w := wire.NewBinWriter(n)
	w.Bytes(b.Ref[:])
	w.Bytes(b.Val)
	w.StringSlice(b.Dir)
	return w.Finish()
}

func decodeGetResp(m *wire.Message) (body getResp, err error) {
	if r, ok := wire.NewBinReader(m.Payload); ok {
		r.Fixed(body.Ref[:])
		body.Val = r.Bytes()
		body.Dir = r.StringSlice()
		return body, r.Err()
	}
	var j getRespJSON
	if err = m.UnpackJSON(&j); err != nil {
		return body, err
	}
	if body.Ref, err = cas.ParseRef(j.Ref); err != nil {
		return body, err
	}
	body.Val, body.Dir = j.Val, j.Dir
	return body, nil
}

// bin lays a fence batch out as name, nprocs, the entries (each an ID
// and its ops, each op key, ref and a delete flag), then the objects.
// The objects are the bulk of an aggregated batch; binary carries them
// as raw bytes where JSON would base64 them at every tree level.
func (b fenceBody) bin() wire.RawBody {
	n := len(b.Name) + 16
	for _, e := range b.Entries {
		n += len(e.ID) + 4
		for _, op := range e.Ops {
			n += len(op.Key) + len(op.Ref) + 3
		}
	}
	for k, v := range b.Objects {
		n += len(k) + len(v) + 8
	}
	w := wire.NewBinWriter(n)
	w.String(b.Name)
	w.Uint(uint64(b.NProcs))
	w.Uint(uint64(len(b.Entries)))
	for _, e := range b.Entries {
		w.String(e.ID)
		w.Uint(uint64(len(e.Ops)))
		for _, op := range e.Ops {
			w.String(op.Key)
			w.String(op.Ref)
			var del uint64
			if op.Delete {
				del = 1
			}
			w.Uint(del)
		}
	}
	w.BytesMap(b.Objects)
	return w.Finish()
}

func decodeFenceBody(m *wire.Message) (body fenceBody, err error) {
	r, ok := wire.NewBinReader(m.Payload)
	if !ok {
		err = m.UnpackJSON(&body)
		return body, err
	}
	body.Name = r.String()
	body.NProcs = int(r.Uint())
	if n := r.Count(); n > 0 {
		body.Entries = make([]fenceEntry, n)
		for i := range body.Entries {
			e := &body.Entries[i]
			e.ID = r.String()
			if nops := r.Count(); nops > 0 {
				e.Ops = make([]Op, nops)
				for j := range e.Ops {
					e.Ops[j] = Op{Key: r.String(), Ref: r.String(), Delete: r.Uint() != 0}
				}
			}
		}
	}
	body.Objects = r.BytesMap()
	return body, r.Err()
}
