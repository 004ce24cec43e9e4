// Package core implements Flux's unified job model: a job is not merely
// a resource allocation but an independent RJMS instance that can either
// run an application or run its own job-management services and
// recursively accept and schedule sub-jobs.
//
// Instances form the paper's job hierarchy, governed by its three rules:
//
//   - Parent bounding rule: the parent grants and confines the resource
//     allocation of all of its children (MaxNodes caps growth).
//   - Child empowerment rule: within those bounds the child owns the
//     allocation — it has its own comms session, scheduler policy, and
//     job table, and the parent is not consulted for its scheduling.
//   - Parental consent rule: a child asks its parent to grow or shrink
//     its allocation, and it is up to the parent to grant the request.
//
// Each instance establishes its own comms session (overlay network) over
// its allocated nodes, with the standard comms-module set loaded, and
// the parent session assists the child's creation — here by wiring the
// child's in-process session directly.
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"fluxgo/internal/broker"
	"fluxgo/internal/clock"
	"fluxgo/internal/kvs"
	"fluxgo/internal/modules/barrier"
	"fluxgo/internal/modules/group"
	"fluxgo/internal/modules/hb"
	"fluxgo/internal/modules/live"
	"fluxgo/internal/modules/wexec"
	"fluxgo/internal/resource"
	"fluxgo/internal/sched"
	"fluxgo/internal/session"
)

// Options configures an instance.
type Options struct {
	// Policy is the instance's scheduler specialization; nil means FCFS.
	Policy sched.Policy
	// Programs extends the simulated program registry for wexec.
	Programs wexec.Registry
	// HBInterval is the instance heartbeat period (default 100ms).
	HBInterval time.Duration
	// Arity is the comms-session tree fan-out (default 2).
	Arity int
	// Clock overrides the time source (tests).
	Clock clock.Clock
	// MaxNodes bounds how far this instance's allocation may grow
	// (parent bounding rule). 0 means "initial allocation only".
	MaxNodes int
}

// Instance is one Flux job: an independent RJMS instance.
type Instance struct {
	id     string
	depth  int
	parent *Instance
	opts   Options

	sess *session.Session
	pool *resource.Pool

	// ctx is canceled at Close so job-wait goroutines unblock; wg
	// tracks them so Close returns only after they finish.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	nodes    []*resource.Resource // instance rank i runs on nodes[i]
	jobs     map[string]*JobRecord
	children map[string]*Instance
	queue    []*queuedJob // pending jobs, in submit order
	nextID   int
	closed   bool
}

// queuedJob is a submitted-but-not-yet-started program job.
type queuedJob struct {
	rec  *JobRecord
	args []string
	req  resource.Request
}

// standardModules is the comms-module set every instance session loads.
func standardModules(opts Options) []session.ModuleFactory {
	return []session.ModuleFactory{
		kvs.Factory(kvs.ModuleConfig{}),
		hb.Factory(hb.Config{Interval: opts.HBInterval}),
		live.Factory(live.Config{}),
		group.Factory,
		barrier.Factory,
		wexec.Factory(wexec.Config{Programs: opts.Programs}),
	}
}

// newInstance builds an instance over the given cloned node set.
func newInstance(id string, depth int, parent *Instance, nodes []*resource.Resource, opts Options) (*Instance, error) {
	if opts.Policy == nil {
		opts.Policy = sched.FCFS{}
	}
	if opts.HBInterval == 0 {
		opts.HBInterval = 100 * time.Millisecond
	}
	if opts.MaxNodes < len(nodes) {
		opts.MaxNodes = len(nodes)
	}
	root := resource.New(resource.TypeCluster, "instance-"+id)
	for _, n := range nodes {
		root.AddChild(n)
	}
	// The comms session is sized to the instance's bound so granted
	// growth maps onto pre-wired ranks.
	sess, err := session.New(session.Options{
		Size:    opts.MaxNodes,
		Arity:   opts.Arity,
		Clock:   opts.Clock,
		Modules: standardModules(opts),
	})
	if err != nil {
		return nil, fmt.Errorf("core: instance %s session: %w", id, err)
	}
	inst := &Instance{
		id:       id,
		depth:    depth,
		parent:   parent,
		opts:     opts,
		sess:     sess,
		pool:     resource.NewPool(root),
		nodes:    append([]*resource.Resource(nil), nodes...),
		jobs:     map[string]*JobRecord{},
		children: map[string]*Instance{},
	}
	inst.ctx, inst.cancel = context.WithCancel(context.Background())
	return inst, nil
}

// NewRoot creates the root instance of a job hierarchy over a cluster
// resource graph. The root owns every node of the cluster.
func NewRoot(cluster *resource.Resource, opts Options) (*Instance, error) {
	nodes := cluster.FindAll(resource.TypeNode)
	if len(nodes) == 0 {
		return nil, fmt.Errorf("core: cluster has no nodes")
	}
	cloned := make([]*resource.Resource, len(nodes))
	for i, n := range nodes {
		cloned[i] = n.Clone()
	}
	opts.MaxNodes = len(nodes)
	return newInstance("root", 0, nil, cloned, opts)
}

// ID returns the instance id (hierarchical, e.g. "root.3.1").
func (i *Instance) ID() string { return i.id }

// Depth returns the instance's depth in the job hierarchy (root = 0).
func (i *Instance) Depth() int { return i.depth }

// Size returns the instance's current node count.
func (i *Instance) Size() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return len(i.nodes)
}

// MaxNodes returns the bound the parent imposed on this instance.
func (i *Instance) MaxNodes() int { return i.opts.MaxNodes }

// Session returns the instance's comms session.
func (i *Instance) Session() *session.Session { return i.sess }

// Handle attaches a new handle to the instance's rank-0 broker.
func (i *Instance) Handle() *broker.Handle { return i.sess.Handle(0) }

// Pool returns the instance's resource pool (the child-empowerment
// surface: callers schedule against it freely).
func (i *Instance) Pool() *resource.Pool { return i.pool }

// Policy returns the instance's scheduling policy.
func (i *Instance) Policy() sched.Policy { return i.opts.Policy }

// Parent returns the parent instance, or nil at the hierarchy root.
func (i *Instance) Parent() *Instance { return i.parent }

// genID mints a child/job identifier. Caller holds mu.
func (i *Instance) genIDLocked(kind string) string {
	i.nextID++
	return fmt.Sprintf("%s.%s%d", i.id, kind, i.nextID)
}

// Spawn creates a child instance: the parent allocates req from its own
// pool (bounding), clones the granted nodes into the child's independent
// resource view, and brings up the child's comms session (empowerment).
// maxNodes > req.Nodes pre-authorizes future growth up to that bound.
func (i *Instance) Spawn(req resource.Request, maxNodes int, opts Options) (*Instance, error) {
	i.mu.Lock()
	if i.closed {
		i.mu.Unlock()
		return nil, fmt.Errorf("core: instance %s is closed", i.id)
	}
	childID := i.genIDLocked("c")
	i.mu.Unlock()

	alloc, err := i.pool.Allocate(childID, req)
	if err != nil {
		return nil, fmt.Errorf("core: spawn %s: %w", childID, err)
	}
	cloned := make([]*resource.Resource, len(alloc.Nodes))
	for k, n := range alloc.Nodes {
		cloned[k] = n.Clone()
	}
	if maxNodes < len(cloned) {
		maxNodes = len(cloned)
	}
	opts.MaxNodes = maxNodes
	child, err := newInstance(childID, i.depth+1, i, cloned, opts)
	if err != nil {
		i.pool.Release(childID)
		return nil, err
	}
	i.mu.Lock()
	i.children[childID] = child
	i.mu.Unlock()
	return child, nil
}

// Children returns the live child instances.
func (i *Instance) Children() []*Instance {
	i.mu.Lock()
	defer i.mu.Unlock()
	out := make([]*Instance, 0, len(i.children))
	for _, c := range i.children {
		out = append(out, c)
	}
	return out
}

// Grow asks the parent for n more nodes (parental consent rule). The
// parent refuses growth beyond the bound it granted at spawn time or
// when its own pool cannot satisfy the request.
func (i *Instance) Grow(n int) error {
	if n < 1 {
		return fmt.Errorf("core: grow by %d", n)
	}
	if i.parent == nil {
		return fmt.Errorf("core: root instance has no parent to ask")
	}
	i.mu.Lock()
	cur := len(i.nodes)
	i.mu.Unlock()
	if cur+n > i.opts.MaxNodes {
		return fmt.Errorf("core: grow to %d exceeds parent bound of %d nodes", cur+n, i.opts.MaxNodes)
	}
	granted, err := i.parent.pool.Grow(i.id, n)
	if err != nil {
		return fmt.Errorf("core: parent refused grow: %w", err)
	}
	cloned := make([]*resource.Resource, len(granted))
	for k, g := range granted {
		cloned[k] = g.Clone()
	}
	i.pool.Adopt(cloned)
	i.mu.Lock()
	i.nodes = append(i.nodes, cloned...)
	i.mu.Unlock()
	return nil
}

// Shrink returns n nodes to the parent. The released nodes must be idle
// in this instance's pool.
func (i *Instance) Shrink(n int) error {
	if n < 1 {
		return fmt.Errorf("core: shrink by %d", n)
	}
	if i.parent == nil {
		return fmt.Errorf("core: root instance has no parent to return nodes to")
	}
	i.mu.Lock()
	if n >= len(i.nodes) {
		i.mu.Unlock()
		return fmt.Errorf("core: shrink of %d would empty the instance", n)
	}
	victims := i.nodes[len(i.nodes)-n:]
	i.mu.Unlock()

	if err := i.pool.Evict(victims); err != nil {
		return fmt.Errorf("core: shrink blocked: %w", err)
	}
	if _, err := i.parent.pool.Shrink(i.id, n); err != nil {
		// Roll back the eviction; the parent's refusal leaves us intact.
		i.pool.Adopt(victims)
		return fmt.Errorf("core: parent refused shrink: %w", err)
	}
	i.mu.Lock()
	i.nodes = i.nodes[:len(i.nodes)-n]
	i.mu.Unlock()
	return nil
}

// Close shuts the instance down: children first (depth-first), then
// running jobs' sessions, then the comms session; finally the parent's
// allocation is released.
func (i *Instance) Close() {
	i.mu.Lock()
	if i.closed {
		i.mu.Unlock()
		return
	}
	i.closed = true
	children := make([]*Instance, 0, len(i.children))
	for _, c := range i.children {
		children = append(children, c)
	}
	queued := i.queue
	i.queue = nil
	i.mu.Unlock()

	for _, q := range queued {
		q.rec.err = fmt.Errorf("core: instance %s closed before job started", i.id)
		close(q.rec.done)
	}
	for _, c := range children {
		c.Close()
	}
	// Unblock job-wait goroutines and let them finish before the
	// session they are waiting on is torn down.
	i.cancel()
	i.wg.Wait()
	i.sess.Close()
	if i.parent != nil {
		i.parent.pool.Release(i.id)
		i.parent.mu.Lock()
		delete(i.parent.children, i.id)
		i.parent.mu.Unlock()
	}
}

// JobRecord tracks one program job run by an instance.
type JobRecord struct {
	ID      string
	Program string
	Ranks   []int // instance-session ranks hosting tasks

	done   chan struct{}
	result wexec.JobResult
	err    error
}

// Wait blocks until the job completes and returns its result.
func (j *JobRecord) Wait(ctx context.Context) (wexec.JobResult, error) {
	select {
	case <-j.done:
		return j.result, j.err
	case <-ctx.Done():
		return wexec.JobResult{}, ctx.Err()
	}
}

// Submit enqueues a simulated program job needing req.Nodes of this
// instance's allocation. Jobs start when the instance's scheduler policy
// admits them — strict arrival order under FCFS, with idle-resource
// backfilling under EASY — and launch in bulk via the instance's wexec
// module. Submit returns immediately; use JobRecord.Wait for completion.
func (i *Instance) Submit(program string, args []string, req resource.Request) (*JobRecord, error) {
	i.mu.Lock()
	if i.closed {
		i.mu.Unlock()
		return nil, fmt.Errorf("core: instance %s is closed", i.id)
	}
	if req.Nodes < 1 || req.Nodes > i.opts.MaxNodes {
		i.mu.Unlock()
		return nil, fmt.Errorf("core: job needs %d nodes; instance is bounded at %d",
			req.Nodes, i.opts.MaxNodes)
	}
	jobID := i.genIDLocked("j")
	rec := &JobRecord{ID: jobID, Program: program, Ranks: nil, done: make(chan struct{})}
	i.jobs[jobID] = rec
	i.queue = append(i.queue, &queuedJob{rec: rec, args: args, req: req})
	i.mu.Unlock()
	i.trySchedule()
	return rec, nil
}

// trySchedule starts queued jobs that fit the free resources. FCFS
// blocks strictly behind the queue head; any other policy (EASY) lets
// later jobs backfill idle nodes. (Live jobs carry no run-time estimate,
// so EASY backfilling here is the conservative no-reservation variant.)
func (i *Instance) trySchedule() {
	strict := i.opts.Policy.Name() == "fcfs"
	for {
		i.mu.Lock()
		if i.closed {
			i.mu.Unlock()
			return
		}
		// Pick and allocate under the instance lock so concurrent
		// schedulers cannot double-book the same nodes.
		var pick *queuedJob
		var alloc *resource.Allocation
		pickIdx := -1
		for idx, q := range i.queue {
			if a, err := i.pool.Allocate(q.rec.ID, q.req); err == nil {
				pick, alloc, pickIdx = q, a, idx
				break
			}
			if strict {
				break // head of queue blocks
			}
		}
		if pick == nil {
			i.mu.Unlock()
			return
		}
		i.queue = append(i.queue[:pickIdx], i.queue[pickIdx+1:]...)
		rankOf := make(map[*resource.Resource]int, len(i.nodes))
		for r, n := range i.nodes {
			rankOf[n] = r
		}
		i.mu.Unlock()

		if err := i.startJob(pick, alloc, rankOf); err != nil {
			pick.rec.err = err
			close(pick.rec.done)
		}
	}
}

// startJob launches an already-allocated job and arranges completion.
func (i *Instance) startJob(q *queuedJob, alloc *resource.Allocation, rankOf map[*resource.Resource]int) error {
	rec := q.rec
	ranks := make([]int, len(alloc.Nodes))
	for k, n := range alloc.Nodes {
		r, ok := rankOf[n]
		if !ok {
			i.pool.Release(rec.ID)
			return fmt.Errorf("core: allocated node %s has no session rank", n.Name)
		}
		ranks[k] = r
	}
	rec.Ranks = ranks
	h := i.sess.Handle(0)
	if _, err := wexec.Run(h, rec.ID, rec.Program, q.args, ranks); err != nil {
		h.Close()
		i.pool.Release(rec.ID)
		return err
	}
	i.wg.Add(1)
	go func() {
		defer i.wg.Done()
		defer h.Close()
		rec.result, rec.err = wexec.Wait(i.ctx, h, rec.ID)
		i.pool.Release(rec.ID)
		close(rec.done)
		i.trySchedule() // freed resources may admit queued jobs
	}()
	return nil
}

// Jobs returns the records of all jobs ever submitted to this instance.
func (i *Instance) Jobs() []*JobRecord {
	i.mu.Lock()
	defer i.mu.Unlock()
	out := make([]*JobRecord, 0, len(i.jobs))
	for _, j := range i.jobs {
		out = append(out, j)
	}
	return out
}
