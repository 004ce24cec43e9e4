// Package kvs implements the Flux distributed key-value store: a comms
// module plus a client library.
//
// The store follows the paper's design: JSON values live in a
// content-addressable object store hashed by SHA-1; hierarchical key
// names ("a.b.c") are broken into path components referencing directory
// objects; an external root reference points to the root directory; and
// every update produces a new root reference. A single master at the
// tree root applies commits and publishes the new root reference as a
// sequenced event; caching slaves switch roots in response and fault
// missing objects in from their CMB-tree parent, recursively up the tree.
//
// Consistency (Vogels' taxonomy, as in the paper): monotonic-read
// follows from ordered event delivery; read-your-writes from returning
// the new root version in the commit response and syncing to it before
// the call returns; causal consistency from GetVersion/WaitVersion.
package kvs

import (
	"fmt"
	"sort"
	"strings"

	"fluxgo/internal/cas"
)

// Op is one key update in a commit or fence: bind Key to the value
// object Ref, or unlink Key when Delete is set.
type Op struct {
	Key    string `json:"key"`
	Ref    string `json:"ref,omitempty"` // hex SHA-1 of the value object
	Delete bool   `json:"del,omitempty"`
}

// ValidateKey checks the hierarchical key syntax: dot-separated,
// non-empty path components.
func ValidateKey(key string) error {
	if key == "" {
		return fmt.Errorf("kvs: empty key")
	}
	if key[0] == '.' || key[len(key)-1] == '.' || strings.Contains(key, "..") {
		return fmt.Errorf("kvs: key %q has an empty path component", key)
	}
	return nil
}

// splitKey returns the path components of a validated key.
func splitKey(key string) []string { return strings.Split(key, ".") }

// editDir is the batch's edits to one directory, gathered before any
// object is read. The directory they apply to is named by the parent:
// with inherit, whatever the parent's base holds under the same name;
// otherwise base (the zero ref for an empty directory).
type editDir struct {
	kids    map[string]*edit
	inherit bool
	base    cas.Ref
}

// edit is the last word the batch has on one name: bind it to ref,
// unlink it (del), or edit the directory under it (dir).
type edit struct {
	ref cas.Ref
	del bool
	dir *editDir
}

// descend returns the edits to the directory named name, replaying the
// store's rules in op order: an untouched name edits the directory
// already there, an unlinked one a fresh empty directory, and one the
// batch bound to a ref the directory that ref names (a value in the way
// becomes an empty directory when the tree is written).
func (d *editDir) descend(name string) *editDir {
	e := d.kids[name]
	switch {
	case e == nil:
		e = &edit{dir: &editDir{inherit: true}}
		d.kids[name] = e
	case e.dir != nil:
	case e.del:
		*e = edit{dir: &editDir{}}
	default:
		*e = edit{dir: &editDir{base: e.ref}}
	}
	if e.dir.kids == nil {
		e.dir.kids = map[string]*edit{}
	}
	return e.dir
}

// baseDir returns the canonical encoding of the directory ref names, or
// nil where the edits start from an empty one: the zero ref, a missing
// object, a value or a corrupt object.
func baseDir(store *cas.Store, ref cas.Ref) []byte {
	if ref.IsZero() {
		return nil
	}
	raw, ok := store.GetRaw(ref)
	if !ok {
		return nil
	}
	dir, err := cas.CanonicalDir(raw)
	if err != nil {
		return nil
	}
	return dir
}

// treeWriter writes an edited tree bottom-up: each directory is merged
// from its base's encoded bytes and its sorted edits, never decoded.
type treeWriter struct {
	store *cas.Store
	pin   bool
	buf   []byte // merge scratch; the store keeps its own copy
}

// write stores d applied to base (canonical, nil for empty) and returns
// the new directory's ref. A directory left empty prunes to the zero
// ref and is not stored.
func (w *treeWriter) write(d *editDir, base []byte) (cas.Ref, error) {
	names := make([]string, 0, len(d.kids))
	for name := range d.kids {
		names = append(names, name)
	}
	sort.Strings(names)
	edits := make([]cas.DirEdit, len(names))
	for i, name := range names {
		e := d.kids[name]
		edits[i] = cas.DirEdit{Name: name, Ref: e.ref, Delete: e.del}
		if e.dir == nil {
			continue
		}
		ref := e.dir.base // zero when inheriting, so an absent entry means empty
		if e.dir.inherit && base != nil {
			found, ok, err := cas.DirLookup(base, name)
			if err != nil {
				return cas.Ref{}, err
			}
			if ok {
				ref = found
			}
		}
		child, err := w.write(e.dir, baseDir(w.store, ref))
		if err != nil {
			return cas.Ref{}, err
		}
		edits[i] = cas.DirEdit{Name: name, Ref: child, Delete: child.IsZero()}
	}
	merged, err := cas.DirMerge(w.buf[:0], base, edits)
	if err != nil {
		return cas.Ref{}, err
	}
	w.buf = merged
	if len(merged) == 1 {
		return cas.Ref{}, nil // no entries left: pruned
	}
	ref := w.store.PutRaw(merged)
	if w.pin {
		w.store.Pin(ref)
	}
	return ref, nil
}

// ApplyOps applies a batch of ops to the tree rooted at root and returns
// the new root reference. It is the master's commit step from the paper:
// new directory objects are created along each updated path, arriving at
// a new root SHA-1. The final root is independent of op order for
// distinct keys (hash-tree determinism); for duplicate keys the last op
// wins. A directory the batch touches costs one merge of its encoded
// bytes, however many entries it holds.
func ApplyOps(store *cas.Store, root cas.Ref, ops []Op, pin bool) (cas.Ref, error) {
	var base []byte
	if !root.IsZero() {
		raw, ok := store.GetRaw(root)
		if !ok {
			return cas.Ref{}, fmt.Errorf("kvs: missing directory object %s", root.Short())
		}
		var err error
		if base, err = cas.CanonicalDir(raw); err != nil {
			return cas.Ref{}, fmt.Errorf("kvs: root object %s: %w", root.Short(), err)
		}
	}
	top := &editDir{kids: map[string]*edit{}}
	for _, op := range ops {
		if err := ValidateKey(op.Key); err != nil {
			return cas.Ref{}, err
		}
		parts := splitKey(op.Key)
		dir := top
		for _, part := range parts[:len(parts)-1] {
			dir = dir.descend(part)
		}
		leaf := parts[len(parts)-1]
		if op.Delete {
			dir.kids[leaf] = &edit{del: true}
			continue
		}
		ref, err := cas.ParseRef(op.Ref)
		if err != nil {
			return cas.Ref{}, fmt.Errorf("kvs: op %q: %w", op.Key, err)
		}
		dir.kids[leaf] = &edit{ref: ref}
	}
	w := treeWriter{store: store, pin: pin}
	return w.write(top, base)
}
