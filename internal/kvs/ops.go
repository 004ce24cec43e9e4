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

// mutDir is a mutable, partially loaded view of a directory used while
// applying a batch of ops. Children are loaded lazily from the store and
// re-serialized bottom-up afterwards, yielding the new root reference.
type mutDir struct {
	entries map[string]*mutEntry
}

// mutEntry is either an untouched reference or a descended-into child
// directory.
type mutEntry struct {
	ref cas.Ref // valid when dir == nil
	dir *mutDir
}

// loadMutDir builds a mutDir from a stored directory object.
func loadMutDir(store *cas.Store, ref cas.Ref) (*mutDir, error) {
	d := &mutDir{entries: map[string]*mutEntry{}}
	if ref.IsZero() {
		return d, nil
	}
	obj, ok := store.Get(ref)
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

// descend returns the child directory named name, loading or creating it
// as needed. A value object in the way is replaced by a fresh directory
// (last write wins).
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
	obj, ok := store.Get(e.ref)
	if ok && obj.Kind == cas.KindDir {
		child, err := loadMutDir(store, e.ref)
		if err != nil {
			return nil, err
		}
		e.dir = child
		return child, nil
	}
	// Entry is a value (or missing): overwrite with an empty directory.
	child := &mutDir{entries: map[string]*mutEntry{}}
	e.dir = child
	return child, nil
}

// serialize stores the (possibly modified) directory tree bottom-up and
// returns the directory's new reference. Empty directories collapse to
// the zero ref so unlinking the last entry prunes the path.
func (d *mutDir) serialize(store *cas.Store, pin bool) (cas.Ref, error) {
	obj := cas.NewDir()
	for name, e := range d.entries {
		if e.dir != nil {
			ref, err := e.dir.serialize(store, pin)
			if err != nil {
				return cas.Ref{}, err
			}
			if ref.IsZero() {
				continue // empty subdirectory pruned
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

// ApplyOps applies a batch of ops to the tree rooted at root and returns
// the new root reference. It is the master's commit step from the paper:
// new directory objects are created along each updated path, arriving at
// a new root SHA-1. The final root is independent of op order for
// distinct keys (hash-tree determinism); for duplicate keys the last op
// wins.
func ApplyOps(store *cas.Store, root cas.Ref, ops []Op, pin bool) (cas.Ref, error) {
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
