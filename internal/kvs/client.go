package kvs

import (
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"

	"time"

	"fluxgo/internal/broker"
	"fluxgo/internal/cas"
	"fluxgo/internal/debuglock"
	"fluxgo/internal/wire"
)

// Client is the KVS API for one process, layered over a broker Handle.
// It provides the paper's call set: Put, Commit, Fence, Get, Watch,
// GetVersion, and WaitVersion. A Client is safe for concurrent use; the
// pending-put set is shared, so concurrent writers contribute to the
// same commit, like threads sharing a process's KVS context.
type Client struct {
	h       *broker.Handle
	service string

	// seq tells apart clients sharing one handle and epoch numbers one
	// client's commits; together with the handle ID they make each
	// Commit's fence name unique, so the fence reply cache can never
	// answer a fresh commit with another client's result.
	seq   uint64
	epoch atomic.Uint64

	mu      debuglock.Mutex
	pending []Op
}

// clientSeq numbers the Clients of this process.
var clientSeq atomic.Uint64

// NewClient wraps a broker handle in a KVS client for the default "kvs"
// service.
func NewClient(h *broker.Handle) *Client {
	return NewClientFor(h, "kvs")
}

// NewClientFor wraps a handle in a client for a specific kvs service
// instance (sharded deployments load several: "kvs0", "kvs1", ...).
func NewClientFor(h *broker.Handle, service string) *Client {
	c := &Client{h: h, service: service, seq: clientSeq.Add(1)}
	c.mu.SetClass("kvs.Client.mu")
	return c
}

// topic builds a service-qualified topic.
func (c *Client) topic(method string) string { return c.service + "." + method }

// Retry policies. All retried client operations are idempotent: reads
// are side-effect free, sync re-registers a version waiter, and fence
// entries are deduplicated by ID at every aggregation level. Transient
// failures here are route errors during re-parenting or deadline expiry
// under partition, both of which heal.
var (
	readOpts  = broker.RPCOptions{Retries: 3, Backoff: 25 * time.Millisecond}
	fenceOpts = broker.RPCOptions{Retries: 4, Backoff: 50 * time.Millisecond}
)

// Handle returns the underlying broker handle.
func (c *Client) Handle() *broker.Handle { return c.h }

// Put records key = v (any JSON-marshalable value) in write-back mode:
// the value object is cached in the local broker's kvs module and the
// (key, SHA-1) tuple held pending until Commit or Fence.
func (c *Client) Put(key string, v any) error {
	if err := ValidateKey(key); err != nil {
		return err
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("kvs: put %q: %w", key, err)
	}
	return c.PutRaw(key, raw)
}

// PutRaw is Put with pre-marshaled JSON bytes.
func (c *Client) PutRaw(key string, raw json.RawMessage) error {
	if err := ValidateKey(key); err != nil {
		return err
	}
	encoded := cas.NewValue(raw).Encode()
	ref := cas.HashOf(encoded)
	body := putBody{Key: key, Ref: ref.String(), Data: encoded}
	if _, err := c.h.RPC(c.topic("put"), wire.NodeidAny, body.bin()); err != nil {
		return err
	}
	c.mu.Lock()
	c.pending = append(c.pending, Op{Key: key, Ref: ref.String()})
	c.mu.Unlock()
	return nil
}

// Delete records an unlink of key, applied at the next Commit or Fence.
func (c *Client) Delete(key string) error {
	if err := ValidateKey(key); err != nil {
		return err
	}
	c.mu.Lock()
	c.pending = append(c.pending, Op{Key: key, Delete: true})
	c.mu.Unlock()
	return nil
}

// takePending atomically removes and returns the pending op set.
func (c *Client) takePending() []Op {
	c.mu.Lock()
	ops := c.pending
	c.pending = nil
	c.mu.Unlock()
	return ops
}

// restorePending puts ops back at the front after a failed commit.
func (c *Client) restorePending(ops []Op) {
	c.mu.Lock()
	c.pending = append(ops, c.pending...)
	c.mu.Unlock()
}

// Commit synchronously flushes pending tuples and dirty objects to the
// master, waits for the new root to be applied locally, and returns the
// new root version — giving read-your-writes consistency, exactly as the
// paper describes. Committing with nothing pending still returns the
// current version.
func (c *Client) Commit() (uint64, error) {
	ops := c.takePending()
	if len(ops) == 0 {
		return c.GetVersion()
	}
	name := fmt.Sprintf("commit.%d.%s.%d.%d", c.h.Rank(), c.h.ID(), c.seq, c.epoch.Add(1))
	return c.fence(name, 1, ops)
}

// Fence commits for a group of nprocs processes collectively: it blocks
// until every participant has entered the fence with the same name, then
// all pending ops are applied in one root transition. Names must be
// unique per collective operation (append an epoch for reuse).
func (c *Client) Fence(name string, nprocs int) (uint64, error) {
	if nprocs < 1 {
		return 0, fmt.Errorf("kvs: fence %q: nprocs %d < 1", name, nprocs)
	}
	return c.fence(name, nprocs, c.takePending())
}

func (c *Client) fence(name string, nprocs int, ops []Op) (uint64, error) {
	// The entry ID is globally unique (handle IDs embed the rank), so a
	// retried request — after a timeout or a route failure mid-fence —
	// is deduplicated at every aggregation level and can never double
	// count this participant or re-apply its ops.
	body := fenceBody{
		Name:    name,
		NProcs:  nprocs,
		Entries: []fenceEntry{{ID: name + "/" + c.h.ID(), Ops: ops}},
	}
	resp, err := c.h.RPCWithOptions(context.Background(), c.topic("fence"), wire.NodeidAny, body.bin(), fenceOpts)
	if err != nil {
		c.restorePending(ops)
		return 0, err
	}
	var root rootBody
	if err := resp.UnpackJSON(&root); err != nil {
		return 0, err
	}
	// Apply the new root locally before returning (read-your-writes).
	if err := c.WaitVersion(root.Version); err != nil {
		return 0, err
	}
	return root.Version, nil
}

// ErrNotFound reports whether err is a no-such-key KVS error.
func ErrNotFound(err error) bool {
	return wire.IsErrnum(err, broker.ErrnoNoEnt)
}

// ErrNotDir reports whether err indicates a key path traversing a value.
func ErrNotDir(err error) bool {
	return wire.IsErrnum(err, errNotDir)
}

// Get looks key up from the current local root, faulting missing objects
// in through the tree of slave caches, and unmarshals the value into
// out. Directory keys return an error; use GetDir.
func (c *Client) Get(key string, out any) error {
	resp, err := c.getRaw(key)
	if err != nil {
		return err
	}
	if resp.Val == nil {
		return fmt.Errorf("kvs: %q is a directory", key)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(resp.Val, out)
}

// GetRaw returns the raw JSON value stored at key.
func (c *Client) GetRaw(key string) (json.RawMessage, error) {
	resp, err := c.getRaw(key)
	if err != nil {
		return nil, err
	}
	if resp.Val == nil {
		return nil, fmt.Errorf("kvs: %q is a directory", key)
	}
	return resp.Val, nil
}

// GetDir returns the sorted entry names of the directory at key.
func (c *Client) GetDir(key string) ([]string, error) {
	resp, err := c.getRaw(key)
	if err != nil {
		return nil, err
	}
	if resp.Dir == nil {
		return nil, fmt.Errorf("kvs: %q is not a directory", key)
	}
	return resp.Dir, nil
}

// GetRef returns the content reference (hex SHA-1) of the object at key.
// Because of the hash-tree organization, a directory's reference changes
// whenever anything beneath it changes, at any depth.
func (c *Client) GetRef(key string) (string, error) {
	resp, err := c.getRaw(key)
	if err != nil {
		return "", err
	}
	return resp.Ref.String(), nil
}

func (c *Client) getRaw(key string) (getResp, error) {
	return c.getAt("", key)
}

// getAt reads key under the snapshot root rootRef (hex), or under the
// current root when rootRef is empty.
func (c *Client) getAt(rootRef, key string) (getResp, error) {
	if err := ValidateKey(key); err != nil {
		return getResp{}, err
	}
	body := getBody{Key: key, Root: rootRef}
	resp, err := c.h.RPCWithOptions(context.Background(), c.topic("get"), wire.NodeidAny, body.bin(), readOpts)
	if err != nil {
		return getResp{}, err
	}
	return decodeGetResp(resp)
}

// RootRef returns the local root reference (hex) and version — a
// snapshot handle usable with GetAt even after later commits.
func (c *Client) RootRef() (string, uint64, error) {
	resp, err := c.h.RPCWithOptions(context.Background(), c.topic("getversion"), wire.NodeidAny, struct{}{}, readOpts)
	if err != nil {
		return "", 0, err
	}
	var body rootBody
	if err := resp.UnpackJSON(&body); err != nil {
		return "", 0, err
	}
	return body.Root, body.Version, nil
}

// GetAt reads key from the snapshot identified by rootRef (as returned
// by RootRef) instead of the current root. Because updates never mutate
// objects in place, old snapshots stay readable: the root switch is
// atomic precisely because "both new and old objects coexist in the
// caches" (the master pins all content; slave caches may need to fault
// expired objects back in).
func (c *Client) GetAt(rootRef, key string, out any) error {
	resp, err := c.getAt(rootRef, key)
	if err != nil {
		return err
	}
	if resp.Val == nil {
		return fmt.Errorf("kvs: %q is a directory", key)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(resp.Val, out)
}

// GetVersion returns the local root version (kvs_get_version). Passing
// it to another process's WaitVersion yields causal consistency.
func (c *Client) GetVersion() (uint64, error) {
	resp, err := c.h.RPCWithOptions(context.Background(), c.topic("getversion"), wire.NodeidAny, struct{}{}, readOpts)
	if err != nil {
		return 0, err
	}
	var body rootBody
	if err := resp.UnpackJSON(&body); err != nil {
		return 0, err
	}
	return body.Version, nil
}

// WaitVersion blocks until the local root version reaches at least
// version (kvs_wait_version). A deadline expiry while the version is
// legitimately still in flight re-registers the waiter (sync is
// idempotent), so WaitVersion survives lost setroot events: the kvs
// module's heartbeat root poll unsticks the version, and the retried
// sync observes it.
func (c *Client) WaitVersion(version uint64) error {
	_, err := c.h.RPCWithOptions(context.Background(), c.topic("sync"), wire.NodeidAny, syncBody{Version: version},
		broker.RPCOptions{Retries: 8, Backoff: 25 * time.Millisecond})
	return err
}

// WatchUpdate is one observed change of a watched key.
type WatchUpdate struct {
	Key     string
	Ref     string          // new content reference ("" if the key vanished)
	Val     json.RawMessage // value JSON, nil for directories/deletion
	Dir     []string        // directory listing, nil for values/deletion
	Exists  bool
	Version uint64 // root version that produced this state
}

// Watch registers a callback-style watch on key (kvs_watch): the
// returned channel receives the key's initial state and then one update
// whenever its content reference changes — which, for directories,
// happens when keys under them change at any path depth. The watch ends
// when ctx is done.
func (c *Client) Watch(ctx context.Context, key string) (<-chan WatchUpdate, error) {
	if err := ValidateKey(key); err != nil {
		return nil, err
	}
	sub, err := c.h.Subscribe(c.topic("setroot"))
	if err != nil {
		return nil, err
	}
	ch := make(chan WatchUpdate, 16)

	state := func(version uint64) WatchUpdate {
		u := WatchUpdate{Key: key, Version: version}
		resp, err := c.getRaw(key)
		if err == nil {
			u.Ref = resp.Ref.String()
			u.Val = resp.Val
			u.Dir = resp.Dir
			u.Exists = true
		}
		return u
	}

	go func() {
		defer sub.Close()
		defer close(ch)
		ver, _ := c.GetVersion()
		last := state(ver)
		select {
		case ch <- last:
		case <-ctx.Done():
			return
		}
		for {
			select {
			case <-ctx.Done():
				return
			case ev, ok := <-sub.Chan():
				if !ok {
					return
				}
				_, version, err := decodeSetroot(ev)
				if err != nil {
					continue
				}
				cur := state(version)
				if cur.Ref == last.Ref && cur.Exists == last.Exists {
					continue // unchanged under this root
				}
				last = cur
				select {
				case ch <- cur:
				case <-ctx.Done():
					return
				}
			}
		}
	}()
	return ch, nil
}
