// Package cas implements the content-addressable object store underlying
// the Flux KVS.
//
// Exactly as in the paper, JSON objects are placed in a content-addressed
// store hashed by their SHA-1 digests, borrowing ideas from ZFS and git:
// values are leaf objects; directories are objects mapping a list of
// names to other objects by SHA-1 reference; and an external root
// reference points to the root directory object, so every update yields a
// new root reference. Slave caches expire unused entries after a period
// of disuse to save memory.
package cas

import (
	"crypto/sha1"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"time"

	"fluxgo/internal/clock"
	"fluxgo/internal/debuglock"
)

// RefLen is the byte length of a SHA-1 reference.
const RefLen = sha1.Size

// Ref is a SHA-1 content reference.
type Ref [RefLen]byte

// String returns the full hex form of the reference.
func (r Ref) String() string { return hex.EncodeToString(r[:]) }

// Short returns an abbreviated hex form for logs, in the style of the
// paper's examples ("1c002dde...").
func (r Ref) Short() string { return hex.EncodeToString(r[:4]) }

// IsZero reports whether r is the all-zero (null) reference.
func (r Ref) IsZero() bool { return r == Ref{} }

// ParseRef decodes a full-length hex reference.
func ParseRef(s string) (Ref, error) {
	var r Ref
	b, err := hex.DecodeString(s)
	if err != nil {
		return r, fmt.Errorf("cas: parse ref: %w", err)
	}
	if len(b) != RefLen {
		return r, fmt.Errorf("cas: parse ref: got %d bytes, want %d", len(b), RefLen)
	}
	copy(r[:], b)
	return r, nil
}

// Kind discriminates object types in the store.
type Kind byte

// Object kinds.
const (
	KindValue Kind = 'v' // leaf: opaque JSON value bytes
	KindDir   Kind = 'd' // interior: name -> Ref map
)

// Object is a decoded store object: either a value or a directory.
type Object struct {
	Kind  Kind
	Value []byte         // valid when Kind == KindValue
	Dir   map[string]Ref // valid when Kind == KindDir
}

// NewValue returns a value object holding raw JSON bytes.
func NewValue(jsonBytes []byte) *Object {
	return &Object{Kind: KindValue, Value: jsonBytes}
}

// NewDir returns an empty directory object.
func NewDir() *Object {
	return &Object{Kind: KindDir, Dir: map[string]Ref{}}
}

// Copy returns a deep copy of the object, so callers may mutate a
// directory without aliasing cached state.
func (o *Object) Copy() *Object {
	c := &Object{Kind: o.Kind}
	if o.Value != nil {
		c.Value = append([]byte(nil), o.Value...)
	}
	if o.Dir != nil {
		c.Dir = make(map[string]Ref, len(o.Dir))
		for k, v := range o.Dir {
			c.Dir[k] = v
		}
	}
	return c
}

// Encode produces the canonical byte serialization whose SHA-1 is the
// object's reference. Directory entries are sorted by name so that equal
// directories always produce equal references — the determinism the
// hash-tree commit protocol depends on.
func (o *Object) Encode() []byte {
	switch o.Kind {
	case KindValue:
		buf := make([]byte, 0, 1+len(o.Value))
		buf = append(buf, byte(KindValue))
		return append(buf, o.Value...)
	case KindDir:
		names := make([]string, 0, len(o.Dir))
		for name := range o.Dir {
			names = append(names, name)
		}
		sort.Strings(names)
		size := 1
		for _, n := range names {
			size += binary.MaxVarintLen64 + len(n) + RefLen
		}
		buf := make([]byte, 0, size)
		buf = append(buf, byte(KindDir))
		for _, n := range names {
			buf = binary.AppendUvarint(buf, uint64(len(n)))
			buf = append(buf, n...)
			ref := o.Dir[n]
			buf = append(buf, ref[:]...)
		}
		return buf
	default:
		panic(fmt.Sprintf("cas: encode unknown kind %q", o.Kind))
	}
}

// ErrCorrupt is returned when decoding malformed object bytes.
var ErrCorrupt = errors.New("cas: corrupt object encoding")

// Decode parses canonical object bytes produced by Encode.
func Decode(data []byte) (*Object, error) {
	if len(data) == 0 {
		return nil, ErrCorrupt
	}
	switch Kind(data[0]) {
	case KindValue:
		return &Object{Kind: KindValue, Value: append([]byte(nil), data[1:]...)}, nil
	case KindDir:
		o := NewDir()
		p := data[1:]
		for len(p) > 0 {
			n, w := binary.Uvarint(p)
			if w <= 0 {
				return nil, ErrCorrupt
			}
			p = p[w:]
			if n > uint64(len(p)) || uint64(len(p))-n < RefLen {
				return nil, ErrCorrupt // compared this way round: n+RefLen can wrap
			}
			name := string(p[:n])
			p = p[n:]
			var ref Ref
			copy(ref[:], p[:RefLen])
			p = p[RefLen:]
			o.Dir[name] = ref
		}
		return o, nil
	default:
		return nil, ErrCorrupt
	}
}

// ErrNotDir is returned by the in-place directory readers when handed a
// well-formed value object.
var ErrNotDir = errors.New("cas: object is not a directory")

// dirTable checks an encoded object's kind byte and returns the entry
// table behind it.
func dirTable(encoded []byte) ([]byte, error) {
	if len(encoded) == 0 {
		return nil, ErrCorrupt
	}
	switch Kind(encoded[0]) {
	case KindDir:
		return encoded[1:], nil
	case KindValue:
		return nil, ErrNotDir
	default:
		return nil, ErrCorrupt
	}
}

// nextEntry locates the first entry of a non-empty entry table: its name
// is p[start:end] and its ref the RefLen bytes after that. ok is false
// where Decode would report ErrCorrupt.
func nextEntry(p []byte) (start, end int, ok bool) {
	n, w := uint64(p[0]), 1
	if n >= 0x80 { // names of 128 bytes and up take the general decoder
		n, w = binary.Uvarint(p)
	}
	if w <= 0 || n > uint64(len(p)-w) || uint64(len(p)-w)-n < RefLen {
		return 0, 0, false
	}
	return w, w + int(n), true
}

// DirEach walks an encoded directory in place — no Object, no map, no
// name strings — calling fn for every entry in encoded (name-sorted)
// order until fn returns false. name aliases encoded and is valid only
// during the call. A complete walk returns ErrCorrupt on exactly the
// inputs Decode rejects; a walk fn stops early has vouched only for the
// entries it saw. A value object yields ErrNotDir.
func DirEach(encoded []byte, fn func(name []byte, ref Ref) bool) error {
	p, err := dirTable(encoded)
	for err == nil && len(p) > 0 {
		start, end, ok := nextEntry(p)
		if !ok {
			return ErrCorrupt
		}
		if !fn(p[start:end], Ref(p[end:end+RefLen])) {
			break
		}
		p = p[end+RefLen:]
	}
	return err
}

// DirLookup finds name in an encoded directory without decoding it. It
// relies on the canonical order Encode writes (sorted, unique names —
// which every object this package produced has): the scan stops at the
// match or at the first name sorting after it, so corruption past that
// point goes unreported. It is DirEach's loop written out, because the
// per-entry callback costs more than the comparison it would carry.
func DirLookup(encoded []byte, name string) (Ref, bool, error) {
	p, err := dirTable(encoded)
	for err == nil && len(p) > 0 {
		start, end, ok := nextEntry(p)
		if !ok {
			return Ref{}, false, ErrCorrupt
		}
		if n := p[start:end]; string(n) >= name {
			return Ref(p[end : end+RefLen]), string(n) == name, nil
		}
		p = p[end+RefLen:]
	}
	return Ref{}, false, err
}

// CanonicalDir vouches for an encoded directory before DirLookup and
// DirMerge rely on its order. It returns encoded itself when it is in
// the canonical form Encode writes (names strictly increasing), the
// canonical re-encoding of what Decode makes of it when it is
// well-formed but out of order (Decode keeps the last of duplicate
// names), ErrCorrupt where Decode fails, and ErrNotDir for a value.
func CanonicalDir(encoded []byte) ([]byte, error) {
	p, err := dirTable(encoded)
	var prev []byte
	for first := true; err == nil && len(p) > 0; first = false {
		start, end, ok := nextEntry(p)
		if !ok {
			return nil, ErrCorrupt
		}
		if name := p[start:end]; first || string(prev) < string(name) {
			prev = name
			p = p[end+RefLen:]
			continue
		}
		o, derr := Decode(encoded)
		if derr != nil {
			return nil, derr
		}
		return o.Encode(), nil
	}
	if err != nil {
		return nil, err
	}
	return encoded, nil
}

// DirEdit is one change DirMerge makes to a directory: bind Name to
// Ref, or unlink Name when Delete is set.
type DirEdit struct {
	Name   string
	Ref    Ref
	Delete bool
}

// errEditOrder is returned by DirMerge for edits not strictly sorted by
// name.
var errEditOrder = errors.New("cas: directory edits not sorted by unique name")

// DirMerge appends to dst the encoding of directory encoded with edits
// applied and returns it: byte for byte what Decode, the edits and
// Encode would give, without a map, a name string or a sort. encoded
// must be canonical (see CanonicalDir); nil stands for the empty
// directory. edits must be sorted by name, each name once. Entries
// between two edits are copied as one run, and the table after the
// last edit is copied unread. A result holding no entry is the lone
// kind byte: the caller prunes it rather than storing it.
func DirMerge(dst, encoded []byte, edits []DirEdit) ([]byte, error) {
	var p []byte
	if encoded != nil {
		var err error
		if p, err = dirTable(encoded); err != nil {
			return nil, err
		}
	}
	dst = append(dst, byte(KindDir))
	off := 0 // p[:off] has been copied or dropped
	for i := range edits {
		e := &edits[i]
		if i > 0 && edits[i-1].Name >= e.Name {
			return nil, errEditOrder
		}
		// The entries sorting before e.Name are copied as one run; an
		// entry named e.Name is skipped, as e replaces or drops it.
		from, skip := off, 0
		for off < len(p) {
			start, end, ok := nextEntry(p[off:])
			if !ok {
				return nil, ErrCorrupt
			}
			if name := p[off+start : off+end]; string(name) >= e.Name {
				if string(name) == e.Name {
					skip = end + RefLen
				}
				break
			}
			off += end + RefLen
		}
		dst = append(dst, p[from:off]...)
		off += skip
		if !e.Delete {
			dst = binary.AppendUvarint(dst, uint64(len(e.Name)))
			dst = append(dst, e.Name...)
			dst = append(dst, e.Ref[:]...)
		}
	}
	return append(dst, p[off:]...), nil
}

// HashOf returns the SHA-1 reference of encoded object bytes.
func HashOf(encoded []byte) Ref {
	return Ref(sha1.Sum(encoded))
}

// entry is one cached object with its last-use timestamp for expiry.
type entry struct {
	data     []byte
	lastUsed time.Time
	pinned   bool
}

// Store is a thread-safe content-addressed object cache. The master's
// store pins everything; slave caches expire unused entries via Expire.
type Store struct {
	clk  clock.Clock
	mu   debuglock.Mutex
	objs map[Ref]*entry
	hits uint64
	miss uint64

	// sink, when installed, receives every object newly inserted by
	// Put/PutRaw. It is invoked after the store lock is released (so a
	// sink may do I/O) and only for first insertion of a ref, never for
	// the idempotent re-put of known content. Written once before the
	// store is shared; read without the lock.
	sink func(ref Ref, encoded []byte)
}

// NewStore returns an empty store whose expiry decisions use clk.
func NewStore(clk clock.Clock) *Store {
	if clk == nil {
		clk = clock.Real()
	}
	s := &Store{clk: clk, objs: make(map[Ref]*entry)}
	s.mu.SetClass("cas.Store.mu")
	return s
}

// Put stores the object and returns its reference. Storing identical
// content is idempotent — the content hash guarantees deduplication.
func (s *Store) Put(o *Object) Ref {
	return s.PutRaw(o.Encode())
}

// PutRaw stores pre-encoded object bytes and returns their reference.
func (s *Store) PutRaw(encoded []byte) Ref {
	ref := HashOf(encoded)
	s.PutHashed(ref, encoded)
	return ref
}

// PutHashed is PutRaw for a caller that has already hashed the bytes
// (to verify them against an expected reference, say) and vouches that
// ref == HashOf(encoded), sparing the second SHA-1 pass. Debuglock
// builds check the claim.
func (s *Store) PutHashed(ref Ref, encoded []byte) {
	if debuglock.Enabled && HashOf(encoded) != ref {
		panic(fmt.Sprintf("cas: PutHashed(%s) given bytes hashing to %s", ref.Short(), HashOf(encoded).Short()))
	}
	inserted := false
	s.mu.Lock()
	if e, ok := s.objs[ref]; ok {
		e.lastUsed = s.clk.Now()
	} else {
		s.objs[ref] = &entry{
			data:     append([]byte(nil), encoded...),
			lastUsed: s.clk.Now(),
		}
		inserted = true
	}
	s.mu.Unlock()
	if inserted && s.sink != nil {
		s.sink(ref, encoded)
	}
}

// SetSink installs the write-through hook; see the sink field. Must be
// called before the store is shared across goroutines.
func (s *Store) SetSink(fn func(ref Ref, encoded []byte)) { s.sink = fn }

// snapEntry is one object captured by snapshot.
type snapEntry struct {
	ref  Ref
	data []byte // aliases the store entry; entries are never mutated
}

// snapshot returns every cached object, for checkpointing.
func (s *Store) snapshot() []snapEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]snapEntry, 0, len(s.objs))
	for ref, e := range s.objs {
		out = append(out, snapEntry{ref: ref, data: e.data})
	}
	return out
}

// GetRaw returns the encoded bytes for ref, refreshing its last-use time.
func (s *Store) GetRaw(ref Ref) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.objs[ref]
	if !ok {
		s.miss++
		return nil, false
	}
	s.hits++
	e.lastUsed = s.clk.Now()
	return e.data, true
}

// Has reports whether ref is present without refreshing last-use.
func (s *Store) Has(ref Ref) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.objs[ref]
	return ok
}

// Pin marks ref exempt from expiry (e.g. the master pins all content).
func (s *Store) Pin(ref Ref) {
	s.mu.Lock()
	if e, ok := s.objs[ref]; ok {
		e.pinned = true
	}
	s.mu.Unlock()
}

// Expire removes unpinned entries unused for at least maxAge and returns
// the number removed. This implements the paper's "unused slave object
// cache entries are expired after a period of disuse".
func (s *Store) Expire(maxAge time.Duration) int {
	now := s.clk.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := 0
	for ref, e := range s.objs {
		if !e.pinned && now.Sub(e.lastUsed) >= maxAge {
			delete(s.objs, ref)
			removed++
		}
	}
	return removed
}

// Len returns the number of cached objects.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.objs)
}

// Stats returns cumulative cache hits and misses.
func (s *Store) Stats() (hits, misses uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.miss
}
