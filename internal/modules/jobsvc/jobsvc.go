// Package jobsvc implements the job-management service: the RJMS face
// of a Flux instance. Jobs are submitted into a queue, scheduled against
// the resource service (resrc), launched in bulk through the
// work-execution module (wexec), and their full lifecycle is recorded in
// the KVS under wexec.JobDir(id) — giving the "much richer provenance on jobs"
// the paper's paradigm calls for. State transitions are published as
// job.state events so tools can follow jobs without polling.
//
// The service instance runs at the session root (requests from any rank
// route upstream to it); its scheduling policy is per-instance, the
// specialization hook of the unified job model.
package jobsvc

import (
	"fmt"
	"sort"
	"sync"

	"fluxgo/internal/broker"
	"fluxgo/internal/kvs"
	"fluxgo/internal/modules/resrc"
	"fluxgo/internal/modules/wexec"
	"fluxgo/internal/obs"
	"fluxgo/internal/wire"
)

// Job states.
const (
	StateSubmitted = "submitted"
	StateRunning   = "running"
	StateComplete  = "complete"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// Spec describes a submitted job.
type Spec struct {
	Program string   `json:"program"`
	Args    []string `json:"args,omitempty"`
	Nodes   int      `json:"nodes"`
}

// Info is a job's public record.
type Info struct {
	ID    string `json:"id"`
	Spec  Spec   `json:"spec"`
	State string `json:"state"`
	Ranks []int  `json:"ranks,omitempty"` // granted session ranks
	Exit  int    `json:"nfailed"`         // failed task count
	// Version is the KVS root version the record was read at; a reader
	// of a finished job syncs to it before reading what the job wrote.
	Version uint64 `json:"version,omitempty"`
}

// stateEvent is the job.state event payload.
type stateEvent struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Version uint64 `json:"version"` // KVS version recording the transition
}

// Config parameterizes the job service.
type Config struct {
	// Backfill lets jobs behind a blocked queue head start when they fit
	// (conservative backfill — live jobs carry no runtime estimate).
	// False gives strict FCFS.
	Backfill bool
}

// Module is the job service instance (root only).
type Module struct {
	cfg Config
	h   *broker.Handle
	kc  *kvs.Client

	mu      sync.Mutex
	nextID  int
	queue   []*Info          // submitted, in arrival order
	running map[string]*Info // id -> running job
}

// New returns a job-service module instance.
func New(cfg Config) *Module {
	return &Module{cfg: cfg, running: map[string]*Info{}}
}

// Factory loads the job service at the session root only. It requires
// kvs, resrc, and wexec.
func Factory(cfg Config) func(rank, size int) broker.Module {
	return func(rank, size int) broker.Module {
		if rank != 0 {
			return nil
		}
		return New(cfg)
	}
}

// Name implements broker.Module.
func (m *Module) Name() string { return "job" }

// Subscriptions implements broker.Module: the service reacts to bulk-job
// completions to drive its queue.
func (m *Module) Subscriptions() []string {
	return []string{"wexec.complete", wire.EventJoin, wire.EventLeave}
}

// Init implements broker.Module.
func (m *Module) Init(h *broker.Handle) error {
	m.h = h
	m.kc = kvs.NewClient(h)
	return nil
}

// Shutdown implements broker.Module.
func (m *Module) Shutdown() {}

// Recv implements broker.Module.
func (m *Module) Recv(msg *wire.Message) {
	if msg.Type == wire.Event && (msg.Topic == wire.EventJoin || msg.Topic == wire.EventLeave) {
		// Membership changed: a join adds capacity for queued jobs, a
		// leave means the queue head may now fit in what remains (the
		// allocator already excludes the departed rank either way).
		m.schedule()
		return
	}
	if msg.Type == wire.Event && msg.Topic == "wexec.complete" {
		m.onComplete(msg)
		return
	}
	if msg.Type != wire.Request {
		return
	}
	switch msg.Method() {
	case "submit":
		m.recvSubmit(msg)
	case "list":
		m.recvList(msg)
	case "cancel":
		m.recvCancel(msg)
	case "info":
		m.recvInfo(msg)
	default:
		m.h.RespondError(msg, broker.ErrnoNoSys, fmt.Sprintf("job: unknown method %q", msg.Method()))
	}
}

// record writes a job's current state into the KVS and announces the
// transition. Returns the recording version.
func (m *Module) record(info *Info) uint64 {
	prefix := wexec.JobDir(info.ID)
	m.kc.Put(prefix+".spec", info.Spec)
	m.kc.Put(prefix+".jobstate", info.State)
	if info.Ranks != nil {
		m.kc.Put(prefix+".ranks", info.Ranks)
	}
	version, err := m.kc.Commit()
	if err != nil {
		return 0
	}
	if _, err := m.h.PublishEvent("job.state", stateEvent{ID: info.ID, State: info.State, Version: version}); err != nil {
		// The KVS record is committed; only the notification was lost.
		// Waiters polling the KVS still converge.
		m.h.Log(obs.LevelWarn, "jobsvc", "job.state event for %q failed: %v", info.ID, err)
	}
	return version
}

func (m *Module) recvSubmit(msg *wire.Message) {
	var spec Spec
	if err := msg.UnpackJSON(&spec); err != nil {
		m.h.RespondError(msg, broker.ErrnoInval, err.Error())
		return
	}
	if spec.Program == "" {
		m.h.RespondError(msg, broker.ErrnoInval, "job: program required")
		return
	}
	if spec.Nodes < 1 {
		spec.Nodes = 1
	}
	if spec.Nodes > m.h.LiveSize() {
		m.h.RespondError(msg, broker.ErrnoInval,
			fmt.Sprintf("job: %d nodes requested, session has %d live", spec.Nodes, m.h.LiveSize()))
		return
	}
	m.mu.Lock()
	m.nextID++
	info := &Info{ID: fmt.Sprintf("%d", m.nextID), Spec: spec, State: StateSubmitted}
	m.queue = append(m.queue, info)
	m.mu.Unlock()

	m.record(info)
	m.h.Respond(msg, map[string]string{"id": info.ID})
	m.schedule()
}

// schedule starts queued jobs that the resource service can satisfy,
// honoring the queue discipline.
func (m *Module) schedule() {
	for {
		m.mu.Lock()
		var pick *Info
		pickIdx := -1
		for idx, j := range m.queue {
			ranks, err := resrc.Alloc(m.h, "job-"+j.ID, j.Spec.Nodes)
			if err == nil {
				j.Ranks = ranks
				pick, pickIdx = j, idx
				break
			}
			if !m.cfg.Backfill {
				break // strict FCFS: the head blocks
			}
		}
		if pick == nil {
			m.mu.Unlock()
			return
		}
		m.queue = append(m.queue[:pickIdx], m.queue[pickIdx+1:]...)
		pick.State = StateRunning
		m.running[pick.ID] = pick
		m.mu.Unlock()

		m.record(pick)
		if _, err := wexec.Run(m.h, "job-"+pick.ID, pick.Spec.Program, pick.Spec.Args, pick.Ranks); err != nil {
			m.finish(pick.ID, StateFailed, 0)
		}
	}
}

// onComplete reacts to a bulk job finishing.
func (m *Module) onComplete(msg *wire.Message) {
	var body struct {
		JobID string `json:"jobid"`
		State string `json:"state"`
	}
	if err := msg.UnpackJSON(&body); err != nil {
		return
	}
	const prefix = "job-"
	if len(body.JobID) <= len(prefix) || body.JobID[:len(prefix)] != prefix {
		return // not ours
	}
	id := body.JobID[len(prefix):]
	state := StateComplete
	if body.State != "complete" {
		state = StateFailed
	}
	var nfailed int
	m.kc.Get(wexec.JobDir(body.JobID)+".nfailed", &nfailed)
	m.finish(id, state, nfailed)
}

// finish retires a running job, frees its resources, and re-schedules.
func (m *Module) finish(id, state string, nfailed int) {
	m.mu.Lock()
	info := m.running[id]
	if info == nil {
		m.mu.Unlock()
		return
	}
	delete(m.running, id)
	info.State = state
	info.Exit = nfailed
	m.mu.Unlock()

	resrc.Free(m.h, "job-"+id)
	m.kc.Put(wexec.JobDir(id)+".nfailed", nfailed)
	m.record(info)
	m.schedule()
}

func (m *Module) recvList(msg *wire.Message) {
	m.mu.Lock()
	out := make([]*Info, 0, len(m.queue)+len(m.running))
	out = append(out, m.queue...)
	for _, j := range m.running {
		out = append(out, j)
	}
	m.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	m.h.Respond(msg, map[string][]*Info{"jobs": out})
}

func (m *Module) recvCancel(msg *wire.Message) {
	var body struct {
		ID string `json:"id"`
	}
	if err := msg.UnpackJSON(&body); err != nil {
		m.h.RespondError(msg, broker.ErrnoInval, err.Error())
		return
	}
	m.mu.Lock()
	// Queued: drop from the queue.
	for idx, j := range m.queue {
		if j.ID == body.ID {
			m.queue = append(m.queue[:idx], m.queue[idx+1:]...)
			j.State = StateCancelled
			m.mu.Unlock()
			m.record(j)
			m.h.Respond(msg, map[string]string{"state": StateCancelled})
			return
		}
	}
	// Running: signal its tasks; completion arrives via wexec.complete
	// and retires it as failed (killed).
	if _, ok := m.running[body.ID]; ok {
		m.mu.Unlock()
		if err := wexec.Kill(m.h, "job-"+body.ID); err != nil {
			m.h.RespondError(msg, broker.ErrnoProto, err.Error())
			return
		}
		m.h.Respond(msg, map[string]string{"state": "killing"})
		return
	}
	m.mu.Unlock()
	m.h.RespondError(msg, broker.ErrnoNoEnt, fmt.Sprintf("job: no active job %q", body.ID))
}

func (m *Module) recvInfo(msg *wire.Message) {
	var body struct {
		ID string `json:"id"`
	}
	if err := msg.UnpackJSON(&body); err != nil {
		m.h.RespondError(msg, broker.ErrnoInval, err.Error())
		return
	}
	// Active jobs answer from memory; completed ones from the KVS record.
	m.mu.Lock()
	if j, ok := m.running[body.ID]; ok {
		m.mu.Unlock()
		m.h.Respond(msg, j)
		return
	}
	for _, j := range m.queue {
		if j.ID == body.ID {
			m.mu.Unlock()
			m.h.Respond(msg, j)
			return
		}
	}
	m.mu.Unlock()
	info := Info{ID: body.ID}
	dir := wexec.JobDir(body.ID)
	if err := m.kc.Get(dir+".jobstate", &info.State); err != nil {
		m.h.RespondError(msg, broker.ErrnoNoEnt, fmt.Sprintf("job: no job %q", body.ID))
		return
	}
	m.kc.Get(dir+".spec", &info.Spec)
	m.kc.Get(dir+".ranks", &info.Ranks)
	m.kc.Get(dir+".nfailed", &info.Exit)
	// The root only moves forward, so the version read after the record
	// is at least the one it was read at.
	info.Version, _ = m.kc.GetVersion()
	m.h.Respond(msg, info)
}
