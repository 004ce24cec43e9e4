package kvs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"fluxgo/internal/broker"
	"fluxgo/internal/cas"
	"fluxgo/internal/obs"
	"fluxgo/internal/wire"
)

// errNotDir aliases the wire-level ENOTDIR: a key path traverses a
// value object.
const errNotDir = wire.ErrnoNotDir

// Wire bodies.

type putBody struct {
	Key  string `json:"key"`
	Ref  string `json:"ref"`
	Data []byte `json:"data"`
}

// fenceEntry is one participant's contribution to a fence. The ID is
// globally unique (fence name + handle identity), and entries travel
// verbatim through every aggregation level, so a retried or duplicated
// batch can always be deduplicated by ID — retransmission can never
// inflate the participant count or re-append ops.
type fenceEntry struct {
	ID  string `json:"id"`
	Ops []Op   `json:"ops,omitempty"`
}

type fenceBody struct {
	Name    string            `json:"name"`
	NProcs  int               `json:"nprocs"`
	Entries []fenceEntry      `json:"entries"`           // deduped by ID at every level
	Objects map[string][]byte `json:"objects,omitempty"` // ref-hex -> encoded object
}

type rootBody struct {
	Root    string `json:"root"` // hex root ref; "" while the store is empty
	Version uint64 `json:"version"`
}

type getBody struct {
	Key string `json:"key"`
	// Root, when set (hex), reads from that snapshot root instead of the
	// current one: because every update produces a new root reference and
	// old and new objects coexist in the stores, any previously observed
	// root remains readable (subject to slave-cache expiry; the master
	// pins everything).
	Root string `json:"root,omitempty"`
}

// getResp answers a kvs.get: the terminal object's reference and either
// a value's JSON bytes or a directory's sorted entry names. A broker's
// request is answered with bin, the one form decodeGetResp reads; an
// external tool's JSON request is answered with getRespJSON.
type getResp struct {
	Ref cas.Ref
	Val []byte // nil for a directory
	Dir []string
}

type getRespJSON struct {
	Ref string          `json:"ref"`
	Val json.RawMessage `json:"val,omitempty"`
	Dir []string        `json:"dir,omitempty"`
}

// loadBody requests object fault-ins from the parent module. Only
// brokers send kvs.load, so it has the binary form alone (bin). The
// batch lets one RPC carry every miss a directory walk discovers, so a
// deep read costs one upstream round-trip per level instead of one per
// object.
type loadBody struct {
	Refs []cas.Ref
}

// loadResp answers a loadBody: Objects[i] is the encoded object for the
// request's Refs[i], nil when the responder could not produce it; the
// requester decides which absences are fatal.
type loadResp struct {
	Objects [][]byte
}

type syncBody struct {
	Version uint64 `json:"version"`
}

// syncWaiter is a parked kvs.sync request, decoded once on arrival.
type syncWaiter struct {
	msg     *wire.Message
	version uint64    // the version it waits for
	since   time.Time // when it was parked
}

// fenceState accumulates fence contributions at one module instance.
type fenceState struct {
	nprocs  int
	seen    map[string]bool   // entry IDs accumulated (dedupe under retry/dup)
	entries []fenceEntry      // deduped entries, in arrival order
	unsent  int               // entries[unsent:] not yet batched upstream (slaves)
	objects map[string][]byte // every object of the fence, deduped by ref
	// fresh lists the refs in objects not yet batched upstream (slaves):
	// an object's data crosses each tree edge once per fence unless a
	// failure forces a re-send; later batches carry the (key, ref) tuple
	// only. This is what makes redundant values reduce up the tree
	// (Fig. 3) while tuples always concatenate. objects keeps the data
	// until completion, because a held batch that fails is re-sent with
	// everything (see recvFenceDone).
	fresh   []string
	held    bool            // the held kvs.fence batch went upstream (slaves)
	add     *fenceAdd       // the unanswered kvs.fenceadd, nil if none (slaves)
	pending []*wire.Message // requests awaiting fence completion (adds are answered on receipt)
}

// fenceAdd is what a slave's in-flight kvs.fenceadd carried, so that a
// failed add's entries and objects go into the next batch.
type fenceAdd struct {
	from int      // the add carried entries[from:unsent at send time]
	refs []string // and these objects
}

// doneFence is the master's record of a completed fence, kept so batches
// retried after completion (their response was lost to a link failure)
// are answered from cache instead of seeding a phantom fence that could
// never complete — or worse, re-applying ops.
type doneFence struct {
	resp   rootBody
	errnum int32  // the failure's errno, answered again to retries
	errmsg string // nonempty if the fence failed to apply
}

// doneFenceCap bounds the master's completed-fence reply cache.
const doneFenceCap = 256

// maxLoadBatch caps the refs one kvs.load RPC carries: a directory walk
// prefetches at most this many missing entries per level, and larger
// fault sets are chunked into several RPCs.
const maxLoadBatch = 64

// maxLoadWorkers bounds concurrent get/load worker goroutines per module
// instance. Read requests beyond the bound queue on the semaphore inside
// their (cheap) goroutines, so the Recv loop itself never blocks on read
// traffic.
const maxLoadWorkers = 64

// ModuleConfig parameterizes the kvs comms module.
type ModuleConfig struct {
	// CacheMaxAge expires unused slave-cache objects after this period of
	// disuse, checked on each heartbeat. Zero disables expiry.
	CacheMaxAge time.Duration
	// Service is the comms-module service name; empty means "kvs".
	// Sharded deployments load several instances ("kvs0", "kvs1", ...).
	Service string
	// MasterRank places the master instance (default rank 0). With the
	// master off the tree root, aggregated traffic still reduces toward
	// rank 0 and takes one rank-addressed hop to the master from there —
	// the paper's future-work direction of "distributing the KVS master
	// itself" via per-namespace masters.
	MasterRank int
	// Dir, when nonempty, backs this instance's object store with the
	// disk tier at Dir/rank<N>/<service>: a write-through WAL plus pack
	// checkpoints (see cas.OpenDurable). A restarted rank cold-loads
	// its cache from disk, and a restarted master resumes its root ref
	// and commit sequence without losing acknowledged fences — the
	// master acknowledges a fence only after its root is fsynced.
	Dir string
	// FS is the filesystem the durable tier writes through; nil means
	// the real one. Chaos tests inject a cas.FaultyFS here.
	FS cas.FS
	// CheckpointEvery folds the WAL into a new pack every N commits
	// (master only). Zero checkpoints only on explicit kvs.checkpoint
	// requests.
	CheckpointEvery int
}

// Module is the kvs comms module. The instance at cfg.MasterRank is the
// master: it applies commits and publishes new root references. All
// other instances are caching slaves.
type Module struct {
	cfg   ModuleConfig
	h     *broker.Handle
	store *cas.Store

	// disk is the durable tier beneath store when cfg.Dir is set; nil
	// for a purely in-memory instance. commitsSinceCkpt drives the
	// CheckpointEvery cadence (Recv-goroutine-owned, master only).
	disk             *cas.Durable
	commitsSinceCkpt int

	// ctx is canceled by Shutdown so background pollers unblock
	// promptly instead of riding out their RPC deadlines; wg tracks
	// them so Shutdown returns only once they are gone.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	root      cas.Ref
	version   uint64
	askedRoot bool

	fences map[string]*fenceState
	syncs  []syncWaiter // kvs.sync requests waiting for a version

	// doneFences / doneOrder: master-only reply cache for retried
	// post-completion fence batches (see doneFence).
	doneFences map[string]doneFence
	doneOrder  []string

	// flights collapses duplicate concurrent fault-ins of one ref, and
	// sem bounds the get/load worker goroutines. Both are touched from
	// worker goroutines; everything below root (root, version, fences,
	// syncs, polling, askedRoot, doneFences) stays Recv-goroutine-owned.
	flights flightGroup
	sem     chan struct{}

	// polling marks an in-flight heartbeat-driven root poll (slaves): when
	// sync waiters are stalled — typically because a setroot event was
	// lost to an injected fault — the slave asks upstream for the current
	// root instead of hanging until the event plane happens to carry a
	// newer one.
	polling bool

	// Observability: counter and histogram handles into the broker's
	// registry, resolved once at Init and namespaced by service name so
	// sharded instances ("kvs0", "kvs1", ...) stay distinguishable.
	obsGets         *obs.Counter // get requests served
	obsLoads        *obs.Counter // objects faulted in from upstream
	obsBatches      *obs.Counter // upstream load RPCs issued (each may carry many refs)
	obsCoalesced    *obs.Counter // fault-ins satisfied by waiting on another goroutine's fetch
	obsDiskLoads    *obs.Counter // read misses served from the disk tier instead of upstream
	obsRecoveries   *obs.Counter // durable opens that found prior state on disk
	obsPersistErrs  *obs.Counter // commits refused because the root could not be made durable
	obsFenceBatches *obs.Counter // fence batches sent upstream: held batches (retries too) plus adds
	histGet         *obs.Histogram
	histPut         *obs.Histogram
	histFence       *obs.Histogram
	histLoad        *obs.Histogram
	histReplay      *obs.Histogram // cold-restore (recovery replay) latency
	histCheckpoint  *obs.Histogram

	// Storage gauges mirror cas.DurableStats into the broker registry so
	// flux stats / flight dumps carry the disk tier's state without a
	// separate kvs.storage RPC. gaugePoisoned is the latch the session
	// flight recorder polls for (*.storage.poisoned nonzero => dump).
	gaugeWALBytes   *obs.Gauge
	gaugeWALRecords *obs.Gauge
	gaugeSyncs      *obs.Gauge
	gaugeCkpts      *obs.Gauge
	gaugePackSeq    *obs.Gauge
	gaugePackBytes  *obs.Gauge
	gaugeIndexed    *obs.Gauge
	gaugeRecovered  *obs.Gauge
	gaugeReplayed   *obs.Gauge
	gaugeDiskLoads  *obs.Gauge
	gaugePoisoned   *obs.Gauge
}

// NewModule returns a kvs module instance with the given configuration.
func NewModule(cfg ModuleConfig) *Module {
	if cfg.Service == "" {
		cfg.Service = "kvs"
	}
	return &Module{cfg: cfg, fences: map[string]*fenceState{}, doneFences: map[string]doneFence{}}
}

// Factory returns a session.ModuleFactory-compatible constructor loading
// the kvs module at every rank.
func Factory(cfg ModuleConfig) func(rank, size int) broker.Module {
	return func(rank, size int) broker.Module { return NewModule(cfg) }
}

// Name implements broker.Module.
func (m *Module) Name() string { return m.cfg.Service }

// setrootTopic is the service's root-update event topic.
func (m *Module) setrootTopic() string { return m.cfg.Service + ".setroot" }

// Subscriptions implements broker.Module: root updates plus the session
// heartbeat used to synchronize cache expiry.
func (m *Module) Subscriptions() []string { return []string{m.setrootTopic(), wire.EventHeartbeat} }

// Init implements broker.Module.
func (m *Module) Init(h *broker.Handle) error {
	m.h = h
	m.ctx, m.cancel = context.WithCancel(context.Background())
	reg := h.Broker().Metrics()
	svc := m.cfg.Service
	m.obsGets = reg.Counter(svc + ".gets")
	m.obsLoads = reg.Counter(svc + ".loads")
	m.obsBatches = reg.Counter(svc + ".load_batches")
	m.obsCoalesced = reg.Counter(svc + ".loads_coalesced")
	m.obsDiskLoads = reg.Counter(svc + ".disk_loads")
	m.obsRecoveries = reg.Counter(svc + ".recoveries")
	m.obsPersistErrs = reg.Counter(svc + ".persist_errors")
	m.obsFenceBatches = reg.Counter(svc + ".fence_batches")
	m.sem = make(chan struct{}, maxLoadWorkers)
	m.histGet = reg.Histogram(svc + ".get_ns")
	m.histPut = reg.Histogram(svc + ".put_ns")
	m.histFence = reg.Histogram(svc + ".fence_ns")
	m.histLoad = reg.Histogram(svc + ".load_ns")
	m.histReplay = reg.Histogram(svc + ".replay_ns")
	m.histCheckpoint = reg.Histogram(svc + ".checkpoint_ns")
	m.gaugeWALBytes = reg.Gauge(svc + ".storage.wal_bytes")
	m.gaugeWALRecords = reg.Gauge(svc + ".storage.wal_records")
	m.gaugeSyncs = reg.Gauge(svc + ".storage.syncs")
	m.gaugeCkpts = reg.Gauge(svc + ".storage.checkpoints")
	m.gaugePackSeq = reg.Gauge(svc + ".storage.pack_seq")
	m.gaugePackBytes = reg.Gauge(svc + ".storage.pack_bytes")
	m.gaugeIndexed = reg.Gauge(svc + ".storage.indexed_objects")
	m.gaugeRecovered = reg.Gauge(svc + ".storage.recovered_objects")
	m.gaugeReplayed = reg.Gauge(svc + ".storage.replayed_records")
	m.gaugeDiskLoads = reg.Gauge(svc + ".storage.disk_loads")
	m.gaugePoisoned = reg.Gauge(svc + ".storage.poisoned")

	if m.cfg.Dir == "" {
		m.store = cas.NewStore(h.Clock())
		return nil
	}
	dir := filepath.Join(m.cfg.Dir, fmt.Sprintf("rank%d", h.Rank()), svc)
	start := time.Now()
	disk, err := cas.OpenDurable(m.cfg.FS, dir, h.Clock())
	if err != nil {
		return fmt.Errorf("%s: open durable tier: %w", svc, err)
	}
	m.disk = disk
	m.store = disk.Store()
	st := disk.Stats()
	if st.RecoveredObjects > 0 || st.ReplayedRecords > 0 {
		m.obsRecoveries.Inc()
		m.histReplay.Observe(time.Since(start))
	}
	if m.isMaster() {
		if root, version := disk.Root(); version > 0 {
			// Resume exactly where the last acknowledged fence left the
			// tree: acknowledged commits survive the restart by
			// construction (the ack barrier is Commit's fsync).
			m.root, m.version = root, version
			m.h.Log(obs.LevelInfo, svc,
				"master recovered root %s v%d (%d objects, %d WAL records replayed)",
				root.Short(), version, st.RecoveredObjects, st.ReplayedRecords)
		}
	}
	m.syncStorageMetrics()
	return nil
}

// syncStorageMetrics copies the durable tier's counters into the broker
// registry gauges. Called wherever the disk state moves (commit,
// checkpoint, heartbeat, storage RPC) so flux stats and flight dumps
// see a current picture without asking the cas layer directly.
func (m *Module) syncStorageMetrics() {
	if m.disk == nil {
		return
	}
	st := m.disk.Stats()
	m.gaugeWALBytes.Set(st.WALBytes)
	m.gaugeWALRecords.Set(int64(st.WALRecords))
	m.gaugeSyncs.Set(int64(st.Syncs))
	m.gaugeCkpts.Set(int64(st.Checkpoints))
	m.gaugePackSeq.Set(int64(st.PackSeq))
	m.gaugePackBytes.Set(st.PackBytes)
	m.gaugeIndexed.Set(int64(st.IndexedObjects))
	m.gaugeRecovered.Set(int64(st.RecoveredObjects))
	m.gaugeReplayed.Set(int64(st.ReplayedRecords))
	m.gaugeDiskLoads.Set(int64(st.DiskLoads))
	if st.SinkErr != "" {
		m.gaugePoisoned.Set(1)
	} else {
		m.gaugePoisoned.Set(0)
	}
}

// Shutdown implements broker.Module.
func (m *Module) Shutdown() {
	m.cancel()
	m.wg.Wait()
	if m.disk != nil {
		if err := m.disk.Close(); err != nil {
			m.h.Log(obs.LevelWarn, m.cfg.Service, "durable close: %v", err)
		}
	}
}

func (m *Module) isMaster() bool { return m.h.Rank() == m.cfg.MasterRank }

// upstreamTarget picks the routing for slave -> master traffic: up the
// tree normally; at the tree root (when the master lives elsewhere) one
// rank-addressed hop to the master.
func (m *Module) upstreamTarget() uint32 {
	if m.h.Rank() == 0 && m.cfg.MasterRank != 0 {
		return uint32(m.cfg.MasterRank)
	}
	return wire.NodeidUpstream
}

// Recv implements broker.Module. All module state is owned by the Recv
// goroutine except the outcome of an upstream fence batch, which arrives
// on a batch-RPC goroutine and re-enters through the broker as a
// kvs.fencedone request.
// Read traffic (get/load) is parsed here, then served on bounded worker
// goroutines that touch only the thread-safe store, the singleflight
// table, and the handle — so a read stalled faulting objects upstream
// no longer blocks every other reader behind it.
func (m *Module) Recv(msg *wire.Message) {
	if msg.Type == wire.Event {
		switch msg.Topic {
		case wire.EventHeartbeat:
			if m.cfg.CacheMaxAge > 0 && !m.isMaster() {
				m.store.Expire(m.cfg.CacheMaxAge)
			}
			m.pollRootIfStalled()
			m.syncStorageMetrics()
		case m.setrootTopic():
			m.recvSetroot(msg)
		}
		return
	}
	switch msg.Method() {
	case "put":
		start := time.Now()
		m.recvPut(msg)
		m.histPut.Observe(time.Since(start))
	case "fence", "commit", "fenceadd":
		start := time.Now()
		m.recvFence(msg)
		m.histFence.Observe(time.Since(start))
	case "fencedone":
		m.recvFenceDone(msg)
	case "rootupdate":
		m.recvRootUpdate(msg)
	case "get":
		// Served on a worker goroutine; recvGet times itself so the
		// histogram covers the full walk, not just the dispatch.
		m.recvGet(msg)
	case "load":
		m.recvLoad(msg)
	case "sync":
		m.recvSync(msg)
	case "getversion":
		m.h.Respond(msg, rootBody{Root: refString(m.root), Version: m.version})
	case "getroot":
		m.recvGetroot(msg)
	case "checkpoint":
		m.recvCheckpoint(msg)
	case "storage":
		m.recvStorage(msg)
	case "stats":
		m.recvStats(msg)
	default:
		m.h.RespondError(msg, broker.ErrnoNoSys, fmt.Sprintf("%s: unknown method %q", m.cfg.Service, msg.Method()))
	}
}

func refString(r cas.Ref) string {
	if r.IsZero() {
		return ""
	}
	return r.String()
}

// parseRootRef is refString's inverse: "" is the empty store's zero ref.
func parseRootRef(s string) (cas.Ref, error) {
	if s == "" {
		return cas.Ref{}, nil
	}
	return cas.ParseRef(s)
}

// recvPut caches a dirty value object locally, in write-back mode: the
// data is not flushed upstream until the owning client commits or fences.
func (m *Module) recvPut(msg *wire.Message) {
	body, err := decodePutBody(msg)
	if err != nil {
		m.h.RespondError(msg, broker.ErrnoInval, err.Error())
		return
	}
	ref := cas.HashOf(body.Data)
	if ref.String() != body.Ref {
		m.h.RespondError(msg, broker.ErrnoProto, "kvs: put ref does not match data hash")
		return
	}
	m.store.PutHashed(ref, body.Data)
	if m.isMaster() {
		m.store.Pin(ref)
	}
	m.h.Respond(msg, struct{}{})
}

// recvFence accumulates one fence contribution (a client entry or an
// aggregated child batch). Entries are deduplicated by ID, so retried
// and fault-duplicated batches are harmless; objects are deduped by
// content hash, so redundant values reduce up the tree while (key, ref)
// tuples concatenate — the asymmetry behind Fig. 3. A kvs.fence or
// kvs.commit is held until the fence completes; a child's kvs.fenceadd
// is answered as soon as it is folded in.
func (m *Module) recvFence(msg *wire.Message) {
	body, err := decodeFenceBody(msg)
	if err != nil {
		m.h.RespondError(msg, broker.ErrnoInval, err.Error())
		return
	}
	if msg.Method() == "commit" {
		body.NProcs = 1
	}
	if m.isMaster() {
		// A batch retried after completion (its response was lost): answer
		// from the reply cache rather than seeding a phantom fence.
		if done, ok := m.doneFences[body.Name]; ok {
			if msg.Method() == "fenceadd" {
				m.h.Respond(msg, struct{}{}) // the held batch carries the outcome
				return
			}
			if done.errmsg != "" {
				m.h.RespondError(msg, done.errnum, done.errmsg)
			} else {
				m.h.Respond(msg, done.resp)
			}
			return
		}
	}
	st := m.fences[body.Name]
	if st == nil {
		st = &fenceState{
			nprocs:  body.NProcs,
			seen:    map[string]bool{},
			objects: map[string][]byte{},
		}
		m.fences[body.Name] = st
	}
	if st.nprocs != body.NProcs {
		m.h.RespondError(msg, broker.ErrnoInval,
			fmt.Sprintf("kvs: fence %q nprocs mismatch (%d vs %d)", body.Name, body.NProcs, st.nprocs))
		return
	}
	for _, e := range body.Entries {
		if st.seen[e.ID] {
			continue // retransmitted or duplicated entry
		}
		st.seen[e.ID] = true
		st.entries = append(st.entries, e)
		// A client entry references locally cached dirty objects; attach
		// them so they flow upstream with the batch ("commit flushes
		// tuples and any still-dirty objects to the master").
		for _, op := range e.Ops {
			if op.Delete || op.Ref == "" {
				continue
			}
			if _, have := st.objects[op.Ref]; have {
				continue
			}
			if ref, err := cas.ParseRef(op.Ref); err == nil {
				if data, ok := m.store.GetRaw(ref); ok {
					m.addFenceObject(st, op.Ref, data)
				}
			}
		}
	}
	for refHex, data := range body.Objects {
		if _, dup := st.objects[refHex]; !dup {
			m.addFenceObject(st, refHex, data)
		}
	}
	if msg.Method() == "fenceadd" {
		m.h.Respond(msg, struct{}{})
	} else {
		st.pending = append(st.pending, msg)
	}

	if m.isMaster() {
		m.maybeCompleteFence(body.Name, st)
	}
}

// addFenceObject records an object new to the fence; at a slave it also
// queues the object for the next upstream batch.
func (m *Module) addFenceObject(st *fenceState, refHex string, data []byte) {
	st.objects[refHex] = data
	if !m.isMaster() {
		st.fresh = append(st.fresh, refHex)
	}
}

// maybeCompleteFence (master only) applies the fence once every
// participant has contributed, publishes the new root session-wide, and
// answers all held batch requests with the new root version.
func (m *Module) maybeCompleteFence(name string, st *fenceState) {
	if len(st.entries) < st.nprocs {
		return
	}
	if err := m.storeFenceObjects(st.objects); err != nil {
		m.failFence(name, st, broker.ErrnoProto, err.Error())
		return
	}
	var ops []Op
	for _, e := range st.entries {
		ops = append(ops, e.Ops...)
	}
	newRoot, err := ApplyOps(m.store, m.root, ops, true)
	if err != nil {
		m.failFence(name, st, broker.ErrnoInval, err.Error())
		return
	}
	if m.disk != nil {
		// The acknowledgment barrier: the new root (and, via the shared
		// WAL, every object it references) must be fsynced before any
		// participant hears success — a fence acknowledged here survives
		// any crash. A storage failure answers the held batches with
		// EIO but keeps the fence state: entry-ID dedup makes a retried
		// batch re-enter and retry this persist idempotently (ApplyOps
		// over the same unchanged root recomputes the same newRoot), so
		// the fence is not poisoned, merely not yet acknowledged.
		if perr := m.disk.Commit(newRoot, m.version+1); perr != nil {
			m.obsPersistErrs.Inc()
			m.syncStorageMetrics()
			m.h.Log(obs.LevelErr, m.cfg.Service, "fence %q persist: %v", name, perr)
			for _, req := range st.pending {
				m.h.RespondError(req, broker.ErrnoIO, perr.Error())
			}
			st.pending = st.pending[:0]
			return
		}
		m.syncStorageMetrics()
	}
	m.root = newRoot
	m.version++
	resp := rootBody{Root: refString(m.root), Version: m.version}
	if _, err := m.h.PublishEvent(m.setrootTopic(), setrootBin(m.root, m.version)); err != nil && !broker.ErrShutdown(err) {
		// The root update is already applied locally; slaves will learn
		// of it from the next successful publication or a root poll.
		_ = err
	}
	for _, req := range st.pending {
		m.h.Respond(req, resp)
	}
	m.recordDone(name, doneFence{resp: resp})
	delete(m.fences, name)
	m.serveSyncs()
	m.maybeCheckpoint()
}

// storeFenceObjects (master only) makes every flushed object present and
// pinned. An object already in the store — a local client's put, hashed
// in recvPut, or content an earlier fence brought — is only pinned; any
// other is hashed once and must match the reference it travelled under,
// or the whole fence fails before anything is stored: a mismatch would
// otherwise commit a root whose ref dangles.
func (m *Module) storeFenceObjects(objects map[string][]byte) error {
	type object struct {
		ref   cas.Ref
		data  []byte
		fresh bool // not yet in the store
	}
	verified := make([]object, 0, len(objects))
	for refHex, data := range objects {
		ref, err := cas.ParseRef(refHex)
		if err != nil {
			return fmt.Errorf("kvs: fence object %q: %w", refHex, err)
		}
		fresh := !m.store.Has(ref)
		if fresh && cas.HashOf(data) != ref {
			return fmt.Errorf("kvs: fence object %s does not match its data hash", ref.Short())
		}
		verified = append(verified, object{ref, data, fresh})
	}
	for _, o := range verified {
		if o.fresh {
			m.store.PutHashed(o.ref, o.data)
		}
		m.store.Pin(o.ref)
	}
	return nil
}

// failFence (master only) answers every held batch of a fence that
// cannot apply with errnum, and caches the failure so a retried batch
// gets the same answer instead of seeding the fence afresh. The root is
// unchanged.
func (m *Module) failFence(name string, st *fenceState, errnum int32, errmsg string) {
	for _, req := range st.pending {
		m.h.RespondError(req, errnum, errmsg)
	}
	m.recordDone(name, doneFence{errnum: errnum, errmsg: errmsg})
	delete(m.fences, name)
}

// maybeCheckpoint folds the WAL into a pack every CheckpointEvery
// commits. It runs inline on the Recv goroutine — a checkpoint is a
// single buffered write + fsync + rename, and commits must serialize
// against it anyway. Failure is logged, not fatal: the WAL remains the
// source of truth and Commit's heal path covers any poisoning.
func (m *Module) maybeCheckpoint() {
	if m.disk == nil || m.cfg.CheckpointEvery <= 0 {
		return
	}
	m.commitsSinceCkpt++
	if m.commitsSinceCkpt < m.cfg.CheckpointEvery {
		return
	}
	m.commitsSinceCkpt = 0
	start := time.Now()
	if _, err := m.disk.Checkpoint(); err != nil {
		m.h.Log(obs.LevelWarn, m.cfg.Service, "periodic checkpoint: %v", err)
		m.syncStorageMetrics()
		return
	}
	m.histCheckpoint.Observe(time.Since(start))
	m.syncStorageMetrics()
}

// recordDone remembers a completed fence in the bounded reply cache.
func (m *Module) recordDone(name string, d doneFence) {
	if _, exists := m.doneFences[name]; !exists {
		m.doneOrder = append(m.doneOrder, name)
		if len(m.doneOrder) > doneFenceCap {
			delete(m.doneFences, m.doneOrder[0])
			m.doneOrder = m.doneOrder[1:]
		}
	}
	m.doneFences[name] = d
}

// fenceRetries bounds how often a slave re-sends a held fence batch
// that failed transiently before it answers its own participants with
// EHOSTUNREACH, and fenceBackoff is the delay before the first re-send.
const (
	fenceRetries = 6
	fenceBackoff = 25 * time.Millisecond
)

// Idle implements broker.IdleBatcher: slaves forward their accumulated
// fence aggregates upstream once the inbox drains, realizing the tree
// reduction. The parent's acknowledgement clocks the flushes. A fence's
// first batch is a kvs.fence the parent holds until completion; each
// later one is a kvs.fenceadd the parent answers once it has folded it
// in. While an add is unanswered the fence is skipped, so contributions
// that arrive meanwhile coalesce into the next add instead of each
// drain sending a batch of its own.
func (m *Module) Idle() {
	if m.isMaster() {
		return
	}
	for name, st := range m.fences {
		if st.add != nil || (st.unsent == len(st.entries) && len(st.fresh) == 0) {
			continue
		}
		batch := fenceBody{
			Name:    name,
			NProcs:  st.nprocs,
			Entries: append([]fenceEntry(nil), st.entries[st.unsent:]...),
			Objects: make(map[string][]byte, len(st.fresh)),
		}
		for _, ref := range st.fresh {
			batch.Objects[ref] = st.objects[ref]
		}
		m.obsFenceBatches.Inc()
		if st.held {
			st.add = &fenceAdd{from: st.unsent, refs: st.fresh}
			go m.sendFenceAdd(batch)
		} else {
			st.held = true
			go m.sendFenceBatch(batch, 0)
		}
		st.unsent = len(st.entries)
		st.fresh = nil
	}
}

// fenceDoneBody is the kvs.fencedone self-send: how a forwarded fence
// batch ended.
type fenceDoneBody struct {
	Name  string `json:"name"`
	Error string `json:"error,omitempty"`
	// Transient marks an error the children may retry: this rank's
	// broker is shutting down or the upstream route failed transiently,
	// so a child's retry (deduplicated by entry ID) can still complete
	// the fence through its adoptive parent.
	Transient bool `json:"transient,omitempty"`
	// Retry, when nonzero, asks for re-send number Retry of the held
	// batch instead of failing the fence.
	Retry int `json:"retry,omitempty"`
	// Add marks the answer to a kvs.fenceadd rather than to the held
	// batch.
	Add     bool   `json:"add,omitempty"`
	Root    string `json:"root"`
	Version uint64 `json:"version"`
}

// sendFenceBatch forwards a fence's held batch upstream and re-injects
// the outcome through the broker so fence state stays single-threaded.
// A transient failure (a parent crash mid-fence, a deadline hit during a
// partition) comes back as a request for a re-send, which recvFenceDone
// builds from everything the fence has accumulated: the parent that
// acknowledged this rank's adds may have died before forwarding them.
func (m *Module) sendFenceBatch(batch fenceBody, attempt int) {
	if attempt > 0 {
		if err := m.h.Backoff(context.Background(), fenceBackoff, attempt-1); err != nil {
			m.h.Send(m.cfg.Service+".fencedone", uint32(m.h.Rank()),
				fenceDoneBody{Name: batch.Name, Error: err.Error(), Transient: true})
			return
		}
	}
	resp, err := m.h.RPCWithOptions(context.Background(), m.cfg.Service+".fence", m.upstreamTarget(), batch.bin(), broker.RPCOptions{})
	done := fenceDoneBody{Name: batch.Name}
	if err != nil {
		done.Error = err.Error()
		done.Transient = broker.ErrShutdown(err) || broker.IsTransient(err)
		if broker.IsTransient(err) && attempt < fenceRetries {
			done.Retry = attempt + 1
		}
	} else {
		var root rootBody
		if uerr := resp.UnpackJSON(&root); uerr != nil {
			done.Error = uerr.Error()
		}
		done.Root, done.Version = root.Root, root.Version
	}
	m.h.Send(m.cfg.Service+".fencedone", uint32(m.h.Rank()), done)
}

// sendFenceAdd forwards one later batch of a fence as a kvs.fenceadd
// and re-injects the parent's acknowledgement. A transient failure is
// reported only after a backoff, because a route that is down fails
// fast until re-parenting completes. On shutdown nothing is reported:
// the add stays unanswered, so a dying rank sends no further adds, and
// the held batch's own failure answers the participants.
func (m *Module) sendFenceAdd(batch fenceBody) {
	_, err := m.h.RPCWithOptions(context.Background(), m.cfg.Service+".fenceadd", m.upstreamTarget(), batch.bin(), broker.RPCOptions{})
	done := fenceDoneBody{Name: batch.Name, Add: true}
	if err != nil {
		if broker.ErrShutdown(err) {
			return
		}
		done.Error = err.Error()
		done.Transient = broker.IsTransient(err)
		if done.Transient && m.h.Backoff(context.Background(), fenceBackoff, 0) != nil {
			return
		}
	}
	m.h.Send(m.cfg.Service+".fencedone", uint32(m.h.Rank()), done)
}

// recvFenceDone handles the outcome of an upstream fence batch at a
// slave. An answered add lets the next one go, and an add that failed
// transiently puts its entries and objects into the next batch. A held
// batch that failed transiently is re-sent with every entry and object
// of the fence. A held batch's answer, or an add's permanent failure,
// ends the fence: every request held for it is answered with the
// (shared) result. A transient failure past the retries is answered
// with EHOSTUNREACH, which the children retry; any other failure with
// EPROTO, which they do not.
func (m *Module) recvFenceDone(msg *wire.Message) {
	var body fenceDoneBody
	if err := msg.UnpackJSON(&body); err != nil {
		return
	}
	st := m.fences[body.Name]
	if st == nil {
		return // the fence already completed
	}
	switch {
	case body.Add && (body.Error == "" || body.Transient):
		if add := st.add; add != nil && body.Error != "" {
			st.unsent = min(st.unsent, add.from)
			st.fresh = append(st.fresh, add.refs...)
		}
		st.add = nil
		return
	case body.Retry > 0:
		full := fenceBody{
			Name:    body.Name,
			NProcs:  st.nprocs,
			Entries: append([]fenceEntry(nil), st.entries...),
			Objects: maps.Clone(st.objects),
		}
		st.unsent = len(st.entries)
		st.fresh = nil
		m.obsFenceBatches.Inc()
		go m.sendFenceBatch(full, body.Retry)
		return
	}
	delete(m.fences, body.Name)
	if body.Error != "" {
		errnum := int32(broker.ErrnoProto)
		if body.Transient {
			errnum = broker.ErrnoHostUnreach
		}
		for _, req := range st.pending {
			m.h.RespondError(req, errnum, body.Error)
		}
		return
	}
	resp := rootBody{Root: body.Root, Version: body.Version}
	for _, req := range st.pending {
		m.h.Respond(req, resp)
	}
}

// pollRootIfStalled (slaves, on heartbeat) detects sync waiters stalled
// behind a lost setroot event — under fault injection the event plane
// may drop an event — and asks upstream for the current root. The result
// re-enters through the broker as a rootupdate request so module state
// stays single-threaded. Polling repeats on subsequent heartbeats until
// the waiters drain, walking the root forward one upstream hop at a time
// even when intermediate slaves are themselves behind.
func (m *Module) pollRootIfStalled() {
	if m.isMaster() || len(m.syncs) == 0 || m.polling {
		return
	}
	m.polling = true
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		var body rootBody
		resp, err := m.h.RPCWithOptions(m.ctx, m.cfg.Service+".getversion", m.upstreamTarget(), struct{}{},
			broker.RPCOptions{Retries: 2, Backoff: 25 * time.Millisecond})
		if err == nil {
			if uerr := resp.UnpackJSON(&body); uerr != nil {
				body = rootBody{}
			}
		}
		// Always re-inject, even on failure (zero version adopts nothing):
		// recvRootUpdate is what clears the polling latch. The send can
		// only fail once the broker is shutting down, when nothing is
		// left to unlatch.
		if serr := m.h.Send(m.cfg.Service+".rootupdate", uint32(m.h.Rank()), body); serr != nil {
			m.h.Log(obs.LevelWarn, m.cfg.Service, "rootupdate re-injection failed: %v", serr)
		}
	}()
}

// recvRootUpdate adopts a polled root and re-arms the heartbeat poll.
func (m *Module) recvRootUpdate(msg *wire.Message) {
	m.polling = false
	var body rootBody
	if err := msg.UnpackJSON(&body); err != nil {
		return
	}
	m.adoptRoot(body)
}

// recvSetroot switches to a new root reference, in version order, and
// wakes any sync waiters. Because events are applied in sequence order,
// versions never go backwards — monotonic read consistency.
func (m *Module) recvSetroot(msg *wire.Message) {
	if root, version, err := decodeSetroot(msg); err == nil {
		m.adoptRef(root, version)
	}
}

// adoptRoot adopts a root heard in the JSON (hex) form.
func (m *Module) adoptRoot(body rootBody) {
	if root, err := parseRootRef(body.Root); err == nil {
		m.adoptRef(root, body.Version)
	}
}

func (m *Module) adoptRef(root cas.Ref, version uint64) {
	if version <= m.version {
		return // stale or duplicate
	}
	m.root = root
	m.version = version
	m.serveSyncs()
}

// serveSyncs answers kvs.sync requests whose target version is reached.
func (m *Module) serveSyncs() {
	if len(m.syncs) == 0 {
		return
	}
	keep := m.syncs[:0]
	for _, w := range m.syncs {
		if m.version >= w.version {
			m.h.Respond(w.msg, rootBody{Root: refString(m.root), Version: m.version})
			continue
		}
		keep = append(keep, w)
	}
	clear(m.syncs[len(keep):]) // drop the answered requests' messages
	m.syncs = keep
}

// recvSync implements kvs_wait_version: respond once the local root
// version reaches the requested version.
func (m *Module) recvSync(msg *wire.Message) {
	var body syncBody
	if err := msg.UnpackJSON(&body); err != nil {
		m.h.RespondError(msg, broker.ErrnoInval, err.Error())
		return
	}
	if m.version >= body.Version {
		m.h.Respond(msg, rootBody{Root: refString(m.root), Version: m.version})
		return
	}
	m.syncs = append(m.syncs, syncWaiter{msg: msg, version: body.Version, since: time.Now()})
}

// oldestSyncMs is how long the oldest parked kvs.sync has waited, in
// milliseconds; 0 with none parked. Waiters are parked in arrival order
// and compaction keeps it, so the oldest is the first.
func (m *Module) oldestSyncMs() float64 {
	if len(m.syncs) == 0 {
		return 0
	}
	return float64(time.Since(m.syncs[0].since).Microseconds()) / 1000
}

// recvGetroot serves a child module that has no root yet.
func (m *Module) recvGetroot(msg *wire.Message) {
	if !m.isMaster() && m.version == 0 {
		// We do not know a root either; ask upstream first.
		m.fetchRoot()
	}
	m.h.Respond(msg, rootBody{Root: refString(m.root), Version: m.version})
}

// fetchRoot lazily learns the current root from upstream, once, covering
// slaves that attach after commits have already happened.
func (m *Module) fetchRoot() {
	if m.askedRoot || m.isMaster() {
		return
	}
	m.askedRoot = true
	resp, err := m.h.RPCWithOptions(context.Background(), m.cfg.Service+".getroot", m.upstreamTarget(), struct{}{},
		broker.RPCOptions{Retries: 2, Backoff: 25 * time.Millisecond})
	if err != nil {
		m.askedRoot = false
		return
	}
	var body rootBody
	if err := resp.UnpackJSON(&body); err == nil {
		m.adoptRoot(body)
	}
}

// spawnWorker runs fn on a tracked goroutine gated by the worker
// semaphore. The goroutine (not the caller) waits for a slot, so Recv
// stays responsive however many reads are queued; fn is skipped when the
// module shuts down before a slot frees up (its request dies with the
// session, like any request in flight at teardown).
func (m *Module) spawnWorker(fn func()) {
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		select {
		case m.sem <- struct{}{}:
		case <-m.ctx.Done():
			return
		}
		defer func() { <-m.sem }()
		fn()
	}()
}

// loadObject returns the encoded object for ref, faulting it in from the
// CMB-tree parent (recursively up the tree) on a local cache miss, then
// caching it — the paper's slave fault-in path.
func (m *Module) loadObject(ref cas.Ref) ([]byte, error) {
	if data, ok := m.store.GetRaw(ref); ok {
		return data, nil
	}
	if err := m.loadObjects([]cas.Ref{ref}); err != nil {
		return nil, err
	}
	data, ok := m.store.GetRaw(ref)
	if !ok {
		// Only reachable if expiry raced the fault-in, which fresh
		// last-use stamps make all but impossible; fail loudly.
		return nil, fmt.Errorf("kvs: object %s evicted during load", ref.Short())
	}
	return data, nil
}

// loadObjects ensures every ref is present in the local store, faulting
// all misses from upstream in (chunked) batched kvs.load RPCs. Misses
// already being fetched by another goroutine are waited on rather than
// re-requested (see flightGroup). Returns the first error; refs that
// loaded successfully stay cached regardless.
func (m *Module) loadObjects(refs []cas.Ref) error {
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	var miss []cas.Ref
	for _, ref := range refs {
		if m.store.Has(ref) {
			continue
		}
		if m.disk != nil {
			// The read-miss tier: an object evicted from memory (or never
			// warmed after a restart) may still be on local disk, sparing
			// the upstream round trip. Load verifies CRC and content hash
			// and repopulates the store.
			if _, ok := m.disk.Load(ref); ok {
				m.obsDiskLoads.Inc()
				continue
			}
		}
		if m.isMaster() {
			// The master holds everything pinned; a miss here is a real
			// absence, not a cache fault.
			fail(fmt.Errorf("kvs: object %s not found", ref.Short()))
			continue
		}
		if miss == nil {
			miss = make([]cas.Ref, 0, len(refs))
		}
		miss = append(miss, ref)
	}
	if len(miss) == 0 {
		return firstErr
	}
	// beginAll drops duplicates, so a ref named twice is fetched or
	// waited on (and counted) once.
	f, lead, waits := m.flights.beginAll(miss, m.store.Has)
	m.obsCoalesced.Add(uint64(len(waits)))
	if f != nil {
		errs := m.fetchBatch(lead)
		m.flights.finishAll(f, lead, errs)
		for _, ref := range lead {
			if err := errs[ref]; err != nil {
				fail(err)
			}
		}
	}
	for _, w := range waits {
		if err := w.wait(); err != nil {
			fail(err)
		}
	}
	return firstErr
}

// fetchBatch faults refs in from upstream, at most maxLoadBatch per RPC,
// verifying and caching every object returned. The per-ref error map
// holds entries only for refs that failed, and is nil when none did.
func (m *Module) fetchBatch(refs []cas.Ref) map[cas.Ref]error {
	var errs map[cas.Ref]error
	for len(refs) > 0 {
		chunk := refs
		if len(chunk) > maxLoadBatch {
			chunk = chunk[:maxLoadBatch]
		}
		refs = refs[len(chunk):]
		m.obsBatches.Inc()
		// Loads are idempotent (content-addressed), so transient route
		// failures are retried rather than surfaced to the reader.
		resp, err := m.h.RPCWithOptions(m.ctx, m.cfg.Service+".load", m.upstreamTarget(), loadBody{Refs: chunk}.bin(),
			broker.RPCOptions{Retries: 4, Backoff: 25 * time.Millisecond})
		var body loadResp
		if err == nil {
			// The objects alias resp's payload, which nothing recycles
			// while resp is held: PutHashed below is their one copy.
			body, err = decodeLoadResp(resp, chunk)
		}
		if err != nil {
			for _, ref := range chunk {
				errs = failRef(errs, ref, err)
			}
			continue
		}
		for i, ref := range chunk {
			data := body.Objects[i]
			if data == nil {
				errs = failRef(errs, ref, fmt.Errorf("kvs: object %s not found", ref.Short()))
				continue
			}
			if cas.HashOf(data) != ref {
				errs = failRef(errs, ref, fmt.Errorf("kvs: loaded object fails hash check for %s", ref.Short()))
				continue
			}
			m.obsLoads.Inc()
			m.store.PutHashed(ref, data)
		}
	}
	return errs
}

// failRef records err for ref, allocating errs on the first failure.
func failRef(errs map[cas.Ref]error, ref cas.Ref, err error) map[cas.Ref]error {
	if errs == nil {
		errs = make(map[cas.Ref]error)
	}
	errs[ref] = err
	return errs
}

// recvLoad serves a child's fault-in request from the local cache,
// faulting misses in from our own parent if necessary. The work happens
// on a worker goroutine: an intermediate slave blocked on its own parent
// must not stall its Recv loop. A request is answered with every object
// this instance ended up holding.
func (m *Module) recvLoad(msg *wire.Message) {
	body, err := decodeLoadBody(msg)
	if err != nil {
		m.h.RespondError(msg, broker.ErrnoInval, err.Error())
		return
	}
	cached := true
	for _, ref := range body.Refs {
		if cached = m.store.Has(ref); !cached {
			break
		}
	}
	// Fast path: every requested object is already cached, so answer
	// from the Recv goroutine and spare the worker handoff.
	if cached {
		start := time.Now()
		if objs, ok := m.heldObjects(body.Refs); ok {
			m.respondLoad(msg, objs, nil)
			m.histLoad.Observe(time.Since(start))
			return
		}
		// An eviction raced the Has scan; fall through to the slow path.
	}
	m.spawnWorker(func() {
		start := time.Now()
		defer func() { m.histLoad.Observe(time.Since(start)) }()
		err := m.loadObjects(body.Refs)
		objs, _ := m.heldObjects(body.Refs)
		m.respondLoad(msg, objs, err)
	})
}

// heldObjects reads refs from the local store in order, nil where
// absent; all reports whether every one was present.
func (m *Module) heldObjects(refs []cas.Ref) (objs [][]byte, all bool) {
	objs = make([][]byte, len(refs))
	all = true
	for i, ref := range refs {
		var ok bool
		if objs[i], ok = m.store.GetRaw(ref); !ok {
			all = false
		}
	}
	return objs, all
}

// respondLoad answers a kvs.load with objs, the requested objects in
// request order, nil where absent. A request none of whose objects could
// be produced is answered ENOENT with err, the fault-in error, when
// there is one.
func (m *Module) respondLoad(msg *wire.Message, objs [][]byte, err error) {
	found := false
	for _, o := range objs {
		if o != nil {
			found = true
			break
		}
	}
	if !found && err != nil {
		m.h.RespondError(msg, broker.ErrnoNoEnt, err.Error())
		return
	}
	m.h.Respond(msg, loadResp{Objects: objs}.bin())
}

// respondGet answers a kvs.get in the encoding its request used: binary
// for a broker's request, JSON for an external tool's.
func (m *Module) respondGet(msg *wire.Message, resp getResp) {
	if wire.IsBinaryBody(msg.Payload) {
		m.h.Respond(msg, resp.bin())
		return
	}
	m.h.Respond(msg, getRespJSON{Ref: resp.Ref.String(), Val: resp.Val, Dir: resp.Dir})
}

// recvGet resolves the read's snapshot root on the Recv goroutine (the
// only place module root state may be touched, and what keeps a get
// ordered against the setroot events queued before it), then hands the
// tree walk to a worker goroutine.
func (m *Module) recvGet(msg *wire.Message) {
	start := time.Now()
	body, err := decodeGetBody(msg)
	if err != nil {
		m.h.RespondError(msg, broker.ErrnoInval, err.Error())
		return
	}
	if err := ValidateKey(body.Key); err != nil {
		m.h.RespondError(msg, broker.ErrnoInval, err.Error())
		return
	}
	m.obsGets.Inc()
	root := m.root
	if body.Root != "" {
		snap, err := cas.ParseRef(body.Root)
		if err != nil {
			m.h.RespondError(msg, broker.ErrnoInval, err.Error())
			return
		}
		root = snap
	} else {
		if root.IsZero() && m.version == 0 {
			m.fetchRoot()
			root = m.root
		}
	}
	if root.IsZero() {
		m.h.RespondError(msg, broker.ErrnoNoEnt, fmt.Sprintf("kvs: %q: no such key", body.Key))
		return
	}
	// Fast path: a fully cached walk is served right here, sparing the
	// worker handoff — warm reads are the overwhelmingly common case.
	if m.serveGet(msg, body.Key, root, false) {
		m.histGet.Observe(time.Since(start))
		return
	}
	m.spawnWorker(func() {
		m.serveGet(msg, body.Key, root, true)
		m.histGet.Observe(time.Since(start))
	})
}

// prefetchDir batches the fault-in of a directory's missing entries:
// when the walk needs one child of the (encoded) directory dir, every
// other missing entry is almost certainly about to be read too (deep
// reads and dir scans touch them all), so they ride along in the same
// upstream round-trip. next is placed first so the cap can never push
// out the object the walk actually needs; failures beyond next are
// harmless (that entry just faults again when actually read).
func (m *Module) prefetchDir(dir []byte, next cas.Ref) {
	if m.isMaster() || m.store.Has(next) {
		// Prefetch only rides along with a fetch the walk needs anyway;
		// when next is cached, no speculative RPC is worth the latency.
		return
	}
	refs := make([]cas.Ref, 1, maxLoadBatch)
	refs[0] = next
	// The walk already looked next up in dir, so dir parses at least
	// that far; whatever DirEach reports past it costs only prefetches.
	_ = cas.DirEach(dir, func(_ []byte, ref cas.Ref) bool {
		if ref != next && !m.store.Has(ref) {
			refs = append(refs, ref)
		}
		return len(refs) < maxLoadBatch
	})
	// Best effort: the walk re-checks next via loadObject and reports
	// its own error there.
	_ = m.loadObjects(refs)
}

// serveGet walks the hash tree from root and responds with the terminal
// object: a value's JSON, or a directory's sorted entry list. Objects
// are read as the store holds them — each path component is looked up
// in its directory's encoded bytes and the value is answered from the
// encoded object — so a get builds no cas.Object at any level. With
// fault set, misses are faulted in from upstream, batched per directory
// level (see prefetchDir), and the walk always completes (done is
// true). Without it — the synchronous fast path — the walk uses only
// the local cache and bails with done == false at the first miss,
// responding nothing; errors the cache alone can prove (a bad path, a
// missing entry) are final in either mode, because the walk reads an
// immutable content-addressed snapshot.
func (m *Module) serveGet(msg *wire.Message, key string, root cas.Ref, fault bool) (done bool) {
	load := func(ref cas.Ref) ([]byte, bool, error) {
		if !fault {
			data, ok := m.store.GetRaw(ref)
			return data, ok, nil
		}
		data, err := m.loadObject(ref)
		return data, err == nil, err
	}
	ref := root
	at := "root" // the component that named ref, for ENOTDIR
	for rest := key; rest != ""; {
		var part string
		part, rest, _ = strings.Cut(rest, ".")
		data, ok, err := load(ref)
		if err != nil {
			m.h.RespondError(msg, broker.ErrnoNoEnt, err.Error())
			return true
		}
		if !ok {
			return false
		}
		next, found, derr := cas.DirLookup(data, part)
		switch {
		case errors.Is(derr, cas.ErrNotDir):
			m.h.RespondError(msg, errNotDir,
				fmt.Sprintf("kvs: %q: %q is not a directory", key, at))
			return true
		case derr != nil:
			m.h.RespondError(msg, broker.ErrnoProto, derr.Error())
			return true
		case !found:
			m.h.RespondError(msg, broker.ErrnoNoEnt, fmt.Sprintf("kvs: %q: no such key", key))
			return true
		}
		if fault {
			m.prefetchDir(data, next)
		}
		ref, at = next, part
	}
	data, ok, err := load(ref)
	if err != nil {
		m.h.RespondError(msg, broker.ErrnoNoEnt, err.Error())
		return true
	}
	if !ok {
		return false
	}
	resp := getResp{Ref: ref}
	derr := cas.DirEach(data, func(name []byte, _ cas.Ref) bool {
		resp.Dir = append(resp.Dir, string(name))
		return true
	})
	switch {
	case errors.Is(derr, cas.ErrNotDir):
		resp.Val = data[1:]
	case derr != nil:
		m.h.RespondError(msg, broker.ErrnoProto, derr.Error())
		return true
	}
	m.respondGet(msg, resp)
	return true
}

// recvCheckpoint forces this instance's disk tier to fold its WAL into
// a fresh pack (an operator action: before planned maintenance, or to
// bound cold-restore time).
func (m *Module) recvCheckpoint(msg *wire.Message) {
	if m.disk == nil {
		m.h.RespondError(msg, broker.ErrnoNoSys, m.cfg.Service+": no durable tier configured")
		return
	}
	start := time.Now()
	cp, err := m.disk.Checkpoint()
	if err != nil {
		m.h.RespondError(msg, broker.ErrnoIO, err.Error())
		return
	}
	m.histCheckpoint.Observe(time.Since(start))
	m.commitsSinceCkpt = 0
	m.h.Respond(msg, map[string]any{
		"rank":    m.h.Rank(),
		"pack":    cp.Pack,
		"objects": cp.Objects,
		"bytes":   cp.Bytes,
	})
}

// recvStorage reports the disk tier's counters (flux storage).
func (m *Module) recvStorage(msg *wire.Message) {
	if m.disk == nil {
		m.h.RespondError(msg, broker.ErrnoNoSys, m.cfg.Service+": no durable tier configured")
		return
	}
	m.syncStorageMetrics()
	m.h.Respond(msg, map[string]any{
		"rank":    m.h.Rank(),
		"service": m.cfg.Service,
		"storage": m.disk.Stats(),
	})
}

func (m *Module) recvStats(msg *wire.Message) {
	hits, misses := m.store.Stats()
	// Per-op latency summaries come out of the broker registry, filtered
	// down to this service's namespace so sharded instances stay separate.
	snap := m.h.Broker().Metrics().Snapshot()
	prefix := m.cfg.Service + "."
	hists := make(map[string]obs.HistSnapshot)
	for name, h := range snap.Hists {
		if strings.HasPrefix(name, prefix) {
			hists[name] = h
		}
	}
	body := map[string]any{
		"rank":            m.h.Rank(),
		"objects":         m.store.Len(),
		"hits":            hits,
		"misses":          misses,
		"gets":            m.obsGets.Load(),
		"loads":           m.obsLoads.Load(),
		"load_batches":    m.obsBatches.Load(),
		"loads_coalesced": m.obsCoalesced.Load(),
		"fence_batches":   m.obsFenceBatches.Load(),
		"version":         m.version,
		"sync_waiters":    len(m.syncs),
		"sync_oldest_ms":  m.oldestSyncMs(),
		"hists":           hists,
	}
	if m.disk != nil {
		body["disk_loads"] = m.obsDiskLoads.Load()
		body["persist_errors"] = m.obsPersistErrs.Load()
		body["storage"] = m.disk.Stats()
	}
	m.h.Respond(msg, body)
}
