package kvs

import (
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

func (b loadBody) bin() wire.RawBody {
	n := len(b.Ref) + 8
	for _, s := range b.Refs {
		n += len(s) + 4
	}
	w := wire.NewBinWriter(n)
	w.String(b.Ref)
	w.StringSlice(b.Refs)
	return w.Finish()
}

func decodeLoadBody(m *wire.Message) (body loadBody, err error) {
	if r, ok := wire.NewBinReader(m.Payload); ok {
		body.Ref = r.String()
		body.Refs = r.StringSlice()
		return body, r.Err()
	}
	err = m.UnpackJSON(&body)
	return body, err
}

func (b loadResp) bin() wire.RawBody {
	n := len(b.Data) + 8
	for k, v := range b.Objects {
		n += len(k) + len(v) + 8
	}
	w := wire.NewBinWriter(n)
	w.Bytes(b.Data)
	w.BytesMap(b.Objects)
	return w.Finish()
}

func decodeLoadResp(m *wire.Message) (body loadResp, err error) {
	if r, ok := wire.NewBinReader(m.Payload); ok {
		body.Data = r.Bytes()
		body.Objects = r.BytesMap()
		return body, r.Err()
	}
	err = m.UnpackJSON(&body)
	return body, err
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
