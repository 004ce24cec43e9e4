package kvs

import (
	"fmt"
	"strings"
	"testing"

	"fluxgo/internal/cas"
)

// getObject decodes the object ref names, as a test reads the tree.
func getObject(store *cas.Store, ref cas.Ref) (*cas.Object, bool) {
	raw, ok := store.GetRaw(ref)
	if !ok {
		return nil, false
	}
	o, err := cas.Decode(raw)
	return o, err == nil
}

// The reference write path: the map-based ApplyOps the merge replaced.
// Every directory a batch touches is decoded into a map, mutated, then
// sorted, re-encoded and rehashed. FuzzApplyOps holds ApplyOps to its
// roots byte for byte.

type mutDir struct {
	entries map[string]*mutEntry
}

type mutEntry struct {
	ref cas.Ref // valid when dir == nil
	dir *mutDir
}

func loadMutDir(store *cas.Store, ref cas.Ref) (*mutDir, error) {
	d := &mutDir{entries: map[string]*mutEntry{}}
	if ref.IsZero() {
		return d, nil
	}
	obj, ok := getObject(store, ref)
	if !ok {
		return nil, fmt.Errorf("kvs: missing directory object %s", ref.Short())
	}
	if obj.Kind != cas.KindDir {
		return nil, fmt.Errorf("kvs: object %s is not a directory", ref.Short())
	}
	for name, r := range obj.Dir {
		d.entries[name] = &mutEntry{ref: r}
	}
	return d, nil
}

func (d *mutDir) descend(store *cas.Store, name string) (*mutDir, error) {
	e, ok := d.entries[name]
	if !ok {
		child := &mutDir{entries: map[string]*mutEntry{}}
		d.entries[name] = &mutEntry{dir: child}
		return child, nil
	}
	if e.dir != nil {
		return e.dir, nil
	}
	obj, ok := getObject(store, e.ref)
	if ok && obj.Kind == cas.KindDir {
		child, err := loadMutDir(store, e.ref)
		if err != nil {
			return nil, err
		}
		e.dir = child
		return child, nil
	}
	child := &mutDir{entries: map[string]*mutEntry{}}
	e.dir = child
	return child, nil
}

func (d *mutDir) serialize(store *cas.Store, pin bool) (cas.Ref, error) {
	obj := cas.NewDir()
	for name, e := range d.entries {
		if e.dir != nil {
			ref, err := e.dir.serialize(store, pin)
			if err != nil {
				return cas.Ref{}, err
			}
			if ref.IsZero() {
				continue
			}
			obj.Dir[name] = ref
			continue
		}
		obj.Dir[name] = e.ref
	}
	if len(obj.Dir) == 0 {
		return cas.Ref{}, nil
	}
	ref := store.Put(obj)
	if pin {
		store.Pin(ref)
	}
	return ref, nil
}

func oracleApplyOps(store *cas.Store, root cas.Ref, ops []Op, pin bool) (cas.Ref, error) {
	rootDir, err := loadMutDir(store, root)
	if err != nil {
		return cas.Ref{}, err
	}
	for _, op := range ops {
		if err := ValidateKey(op.Key); err != nil {
			return cas.Ref{}, err
		}
		parts := splitKey(op.Key)
		dir := rootDir
		for _, part := range parts[:len(parts)-1] {
			dir, err = dir.descend(store, part)
			if err != nil {
				return cas.Ref{}, err
			}
		}
		leaf := parts[len(parts)-1]
		if op.Delete {
			delete(dir.entries, leaf)
			continue
		}
		ref, err := cas.ParseRef(op.Ref)
		if err != nil {
			return cas.Ref{}, fmt.Errorf("kvs: op %q: %w", op.Key, err)
		}
		dir.entries[leaf] = &mutEntry{ref: ref}
	}
	return rootDir.serialize(store, pin)
}

// script turns fuzz bytes into choices; an exhausted script reads 0.
type script []byte

func (s *script) next(n int) int {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return int(b) % n
}

// fuzzNames is a small alphabet, so keys collide, nest inside each
// other and cross values; "lwj" and digits make bucket-shaped paths.
var fuzzNames = []string{"a", "b", "c", "lwj", "0", "1", "k\x00"}

// fuzzStore builds one side's store: the same values and directory
// objects on every call — well-formed, out-of-order, duplicate-name,
// corrupt and empty — and returns the refs ops may bind.
func fuzzStore() (*cas.Store, []string) {
	store := cas.NewStore(nil)
	var refs []string
	for i := 0; i < 4; i++ {
		refs = append(refs, store.Put(cas.NewValue([]byte(fmt.Sprint(i)))).String())
	}
	v0, _ := cas.ParseRef(refs[0])
	v1, _ := cas.ParseRef(refs[1])
	entry := func(name string, ref cas.Ref) []byte {
		return append(append([]byte{byte(len(name))}, name...), ref[:]...)
	}
	kind := []byte{byte(cas.KindDir)}
	for _, raw := range [][]byte{
		(&cas.Object{Kind: cas.KindDir, Dir: map[string]cas.Ref{"a": v0, "b": v1}}).Encode(),
		(&cas.Object{Kind: cas.KindDir, Dir: map[string]cas.Ref{"c": v1}}).Encode(),
		cas.NewDir().Encode(),
		concat(kind, entry("b", v0), entry("a", v1)), // out of order
		concat(kind, entry("a", v0), entry("a", v1)), // duplicate name
		concat(kind, []byte{5, 'a'}),                 // corrupt
	} {
		refs = append(refs, store.PutRaw(raw).String())
	}
	refs = append(refs, cas.Ref{}.String())
	return store, refs
}

func concat(parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// fuzzBatch reads one op batch from s. ref-typed ops may bind any ref
// in refs, the roots of earlier batches included.
func fuzzBatch(s *script, refs []string) []Op {
	ops := make([]Op, s.next(9))
	for i := range ops {
		parts := make([]string, 1+s.next(3))
		for j := range parts {
			parts[j] = fuzzNames[s.next(len(fuzzNames))]
		}
		ops[i].Key = strings.Join(parts, ".")
		if s.next(4) == 0 {
			ops[i].Delete = true
		} else {
			ops[i].Ref = refs[s.next(len(refs))]
		}
	}
	return ops
}

// checkApplyOps replays one script on two identical stores, the oracle
// on one and ApplyOps on the other: two batches build a prior root, then
// three batches apply over it. Every root, and the number of objects
// each side stored, must agree.
func checkApplyOps(t *testing.T, data []byte) {
	want, refs := fuzzStore()
	got, _ := fuzzStore()
	var wantRoot, gotRoot cas.Ref
	for batch := 0; batch < 5; batch++ {
		s := script(data)
		ops := fuzzBatch(&s, refs)
		data = s
		apply := ApplyOps
		if batch < 2 {
			apply = oracleApplyOps // the prior root: the same on both sides
		}
		w, werr := oracleApplyOps(want, wantRoot, ops, batch%2 == 0)
		g, gerr := apply(got, gotRoot, ops, batch%2 == 0)
		if (werr != nil) != (gerr != nil) || w != g {
			t.Fatalf("batch %d %+v over root %s: ApplyOps %s (%v), oracle %s (%v)",
				batch, ops, gotRoot.Short(), g.Short(), gerr, w.Short(), werr)
		}
		if want.Len() != got.Len() {
			t.Fatalf("batch %d %+v: ApplyOps left %d objects, oracle %d", batch, ops, got.Len(), want.Len())
		}
		if werr == nil {
			wantRoot, gotRoot = w, g
			refs = append(refs, w.String())
		}
	}
}

func FuzzApplyOps(f *testing.F) {
	f.Add([]byte{})
	// Prior root a.b, a.c; then unlink a and write a.0: the new a must
	// start empty, not from the directory the unlink dropped.
	f.Add([]byte{2, 1, 0, 1, 1, 1, 1, 0, 2, 1, 2, 0, 2, 0, 0, 0, 1, 0, 4, 1, 3})
	// Prior root a.b; then bind a to the {a, b} directory object and
	// write a.c: the new a starts from that object.
	f.Add([]byte{1, 1, 0, 1, 1, 1, 0, 2, 0, 0, 1, 4, 1, 0, 2, 1, 2})
	f.Add([]byte("\x08\x00\x03\x01\x00\x05\x01\x02\x00\x01\x07\x02\x01\x03\x00\x01\x02\x00\x02\x04\x01\x00\x06"))
	f.Add([]byte("\x04\x02\x01\x02\x01\x04\x00\x00\x00\x02\x00\x01\x00\x00\x03\x02\x00\x00\x01\x00\x09\x00\x00\x03\x04\x0a\x00"))
	for i := 0; i < 16; i++ {
		seed := make([]byte, 64)
		for j := range seed {
			seed[j] = byte(i*131 + j*j*7 + j)
		}
		f.Add(seed)
	}
	f.Fuzz(checkApplyOps)
}
