// Package wexec implements the work-execution comms module of Table I:
// remote processes can be launched in bulk, monitored, signalled, and
// have their standard I/O captured in the KVS.
//
// Tasks are simulated processes — registered Go programs running in
// goroutines (the paper launched real binaries; this substitution keeps
// the identical control and data paths: bulk launch via a session event,
// per-task stdio and exit codes committed to the KVS under JobDir(jobid),
// completion counting reduced to the root, kill via a session event).
package wexec

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"fluxgo/internal/broker"
	"fluxgo/internal/kvs"
	"fluxgo/internal/obs"
	"fluxgo/internal/wire"
)

// Program is a simulated executable: it reads args, writes to stdout and
// stderr buffers, and returns an exit code. ctx is cancelled when the
// task is signalled.
type Program func(ctx context.Context, rank int, args []string, stdout, stderr *strings.Builder) int

// Registry maps program names to implementations.
type Registry map[string]Program

// HandleProgram is a Program variant that additionally receives a broker
// handle attached at the task's rank. Run-time tools (debuggers,
// monitors) use it for the paper's "secure third-party access to running
// jobs": the handle reaches the job's KVS data and the session's
// services. The handle is owned by the module and closed after the task.
type HandleProgram func(ctx context.Context, h *broker.Handle, rank int, args []string, stdout, stderr *strings.Builder) int

// HandleRegistry maps tool names to handle-bearing implementations.
type HandleRegistry map[string]HandleProgram

// BuiltinPrograms returns the default simulated program set.
func BuiltinPrograms() Registry {
	return Registry{
		// echo writes its arguments to stdout and exits 0.
		"echo": func(ctx context.Context, rank int, args []string, stdout, stderr *strings.Builder) int {
			fmt.Fprintln(stdout, strings.Join(args, " "))
			return 0
		},
		// hostname writes the simulated node name.
		"hostname": func(ctx context.Context, rank int, args []string, stdout, stderr *strings.Builder) int {
			fmt.Fprintf(stdout, "node%d\n", rank)
			return 0
		},
		// fail exits with the code given as its first argument (default 1).
		"fail": func(ctx context.Context, rank int, args []string, stdout, stderr *strings.Builder) int {
			code := 1
			if len(args) > 0 {
				fmt.Sscanf(args[0], "%d", &code)
			}
			fmt.Fprintln(stderr, "simulated failure")
			return code
		},
		// block waits for cancellation (exercises kill), then exits 143.
		"block": func(ctx context.Context, rank int, args []string, stdout, stderr *strings.Builder) int {
			<-ctx.Done()
			fmt.Fprintln(stderr, "terminated by signal")
			return 143
		},
	}
}

// runBody is the wexec.run event payload: the bulk-launch request.
type runBody struct {
	JobID   string   `json:"jobid"`
	Program string   `json:"program"`
	Args    []string `json:"args"`
	Ranks   []int    `json:"ranks"` // target ranks; empty means all
	NTasks  int      `json:"ntasks"`
}

// killBody is the wexec.kill event payload.
type killBody struct {
	JobID string `json:"jobid"`
}

// doneBody aggregates completion counts toward the root.
type doneBody struct {
	JobID string `json:"jobid"`
	Count int    `json:"count"`
	Fails int    `json:"fails"`
}

// Config parameterizes the wexec module.
type Config struct {
	Programs Registry // nil defaults to BuiltinPrograms
	// Tools are handle-bearing programs, looked up after Programs.
	Tools HandleRegistry
}

// jobState tracks completion counting (root) and batching (slaves). A
// slave's entry lives only until Idle has forwarded its counts.
type jobState struct {
	expected    int // root only: total tasks (from the run event)
	count       int
	fails       int
	unsentCount int
	unsentFails int
}

// Module is one wexec module instance.
type Module struct {
	cfg Config
	h   *broker.Handle
	kc  *kvs.Client // job records at the root (finishJob); tasks have their own

	mu      sync.Mutex
	jobs    map[string]*jobState
	cancels map[string][]*context.CancelFunc // jobid -> cancels of local tasks still running
	wg      sync.WaitGroup

	// Observability handles into the broker registry ("wexec.*").
	obsTasks    *obs.Counter // tasks launched at this rank
	obsFailed   *obs.Counter // tasks that exited nonzero
	obsFinished *obs.Counter // jobs finalized (root only)
	obsRunning  *obs.Gauge   // tasks currently running here
	histTask    *obs.Histogram
}

// New returns a wexec module instance.
func New(cfg Config) *Module {
	if cfg.Programs == nil {
		cfg.Programs = BuiltinPrograms()
	}
	return &Module{
		cfg:     cfg,
		jobs:    map[string]*jobState{},
		cancels: map[string][]*context.CancelFunc{},
	}
}

// Factory loads wexec at every rank. It requires the kvs module.
func Factory(cfg Config) func(rank, size int) broker.Module {
	return func(rank, size int) broker.Module { return New(cfg) }
}

// Name implements broker.Module.
func (m *Module) Name() string { return "wexec" }

// Subscriptions implements broker.Module.
func (m *Module) Subscriptions() []string { return []string{"wexec.run", "wexec.kill"} }

// Init implements broker.Module.
func (m *Module) Init(h *broker.Handle) error {
	m.h = h
	m.kc = kvs.NewClient(h)
	reg := h.Broker().Metrics()
	m.obsTasks = reg.Counter("wexec.tasks")
	m.obsFailed = reg.Counter("wexec.tasks_failed")
	m.obsFinished = reg.Counter("wexec.jobs_finished")
	m.obsRunning = reg.Gauge("wexec.running")
	m.histTask = reg.Histogram("wexec.task_ns")
	return nil
}

// Shutdown implements broker.Module: cancel local tasks and wait.
func (m *Module) Shutdown() {
	m.mu.Lock()
	for _, cancels := range m.cancels {
		for _, c := range cancels {
			(*c)()
		}
	}
	m.mu.Unlock()
	m.wg.Wait()
}

// Recv implements broker.Module.
func (m *Module) Recv(msg *wire.Message) {
	switch {
	case msg.Type == wire.Event && msg.Topic == "wexec.run":
		m.onRun(msg)
	case msg.Type == wire.Event && msg.Topic == "wexec.kill":
		m.onKill(msg)
	case msg.Type == wire.Request && msg.Method() == "done":
		m.recvDone(msg)
	case msg.Type == wire.Request && msg.Method() == "run":
		m.recvRun(msg)
	case msg.Type == wire.Request && msg.Method() == "stats":
		m.recvStats(msg)
	case msg.Type == wire.Request:
		m.h.RespondError(msg, broker.ErrnoNoSys, fmt.Sprintf("wexec: unknown method %q", msg.Method()))
	}
}

// recvRun validates a client launch request and publishes the bulk-run
// event (any instance can accept the request).
func (m *Module) recvRun(msg *wire.Message) {
	var body runBody
	if err := msg.UnpackJSON(&body); err != nil {
		m.h.RespondError(msg, broker.ErrnoInval, err.Error())
		return
	}
	if body.JobID == "" || body.Program == "" {
		m.h.RespondError(msg, broker.ErrnoInval, "wexec: jobid and program required")
		return
	}
	if len(body.Ranks) == 0 {
		for r := 0; r < m.h.Size(); r++ {
			body.Ranks = append(body.Ranks, r)
		}
	}
	sort.Ints(body.Ranks)
	for _, r := range body.Ranks {
		if r < 0 || r >= m.h.Size() {
			m.h.RespondError(msg, broker.ErrnoInval, fmt.Sprintf("wexec: rank %d out of range", r))
			return
		}
	}
	body.NTasks = len(body.Ranks)
	if _, err := m.h.PublishEvent("wexec.run", body); err != nil {
		m.h.RespondError(msg, broker.ErrnoProto, err.Error())
		return
	}
	m.h.Respond(msg, map[string]int{"ntasks": body.NTasks})
}

// onRun spawns local tasks for a bulk-run event.
func (m *Module) onRun(msg *wire.Message) {
	var body runBody
	if err := msg.UnpackJSON(&body); err != nil {
		return
	}
	if m.h.Rank() == 0 {
		m.mu.Lock()
		st := m.ensureJobLocked(body.JobID)
		st.expected = body.NTasks
		done := st.count >= st.expected
		m.mu.Unlock()
		// All completions may already have arrived (tiny jobs).
		if done {
			m.finishJob(body.JobID)
		}
	}
	mine := false
	for _, r := range body.Ranks {
		if r == m.h.Rank() {
			mine = true
			break
		}
	}
	if !mine {
		return
	}
	prog, ok := m.cfg.Programs[body.Program]
	tool, tok := m.cfg.Tools[body.Program]
	ctx, cancel := context.WithCancel(context.Background())
	m.mu.Lock()
	m.cancels[body.JobID] = append(m.cancels[body.JobID], &cancel)
	m.mu.Unlock()
	m.wg.Add(1)
	m.obsTasks.Inc()
	m.obsRunning.Add(1)
	// Each task commits through a client of its own: on a shared one a
	// task's Commit could find its puts taken by another task's commit
	// still in flight and report done before its output is committed.
	kc := kvs.NewClient(m.h)
	go func() {
		start := time.Now()
		defer m.wg.Done()
		defer cancel()
		var stdout, stderr strings.Builder
		code := 127
		switch {
		case ok:
			code = prog(ctx, m.h.Rank(), body.Args, &stdout, &stderr)
		case tok:
			th := m.h.Broker().NewHandle()
			code = tool(ctx, th, m.h.Rank(), body.Args, &stdout, &stderr)
			th.Close()
		default:
			fmt.Fprintf(&stderr, "wexec: no such program %q\n", body.Program)
		}
		m.dropCancel(body.JobID, &cancel)
		m.obsRunning.Add(-1)
		if code != 0 {
			m.obsFailed.Inc()
		}
		m.histTask.Observe(time.Since(start))
		m.completeTask(kc, body.JobID, code, stdout.String(), stderr.String())
	}()
}

// completeTask captures a finished task's stdio and exit code in the KVS
// through the task's own client and reports completion toward the root.
func (m *Module) completeTask(kc *kvs.Client, jobid string, code int, stdout, stderr string) {
	prefix := JobDir(jobid) + "." + strconv.Itoa(m.h.Rank())
	kc.Put(prefix+".exitcode", code)
	if stdout != "" {
		kc.Put(prefix+".stdout", stdout)
	}
	if stderr != "" {
		kc.Put(prefix+".stderr", stderr)
	}
	if _, err := kc.Commit(); err != nil && !broker.ErrShutdown(err) {
		return
	}
	fails := 0
	if code != 0 {
		fails = 1
	}
	// Report completion; the module aggregates counts upstream on Idle.
	m.h.Send("wexec.done", uint32(m.h.Rank()), doneBody{JobID: jobid, Count: 1, Fails: fails})
}

// dropCancel forgets an ended task's cancel func.
func (m *Module) dropCancel(jobid string, cancel *context.CancelFunc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rest := slices.DeleteFunc(m.cancels[jobid], func(c *context.CancelFunc) bool { return c == cancel })
	if len(rest) == 0 {
		delete(m.cancels, jobid)
	} else {
		m.cancels[jobid] = rest
	}
}

func (m *Module) ensureJobLocked(jobid string) *jobState {
	st := m.jobs[jobid]
	if st == nil {
		st = &jobState{}
		m.jobs[jobid] = st
	}
	return st
}

// recvDone folds completion counts; the root finalizes the job when all
// tasks have reported.
func (m *Module) recvDone(msg *wire.Message) {
	var body doneBody
	if err := msg.UnpackJSON(&body); err != nil {
		return
	}
	m.mu.Lock()
	st := m.ensureJobLocked(body.JobID)
	st.count += body.Count
	st.fails += body.Fails
	st.unsentCount += body.Count
	st.unsentFails += body.Fails
	finish := m.h.Rank() == 0 && st.expected > 0 && st.count >= st.expected
	m.mu.Unlock()
	if finish {
		m.finishJob(body.JobID)
	}
}

// finishJob (root) writes the job's final state to the KVS and announces
// completion session-wide.
func (m *Module) finishJob(jobid string) {
	m.mu.Lock()
	st := m.jobs[jobid]
	if st == nil {
		m.mu.Unlock()
		return
	}
	fails := st.fails
	ntasks := st.count
	delete(m.jobs, jobid)
	delete(m.cancels, jobid)
	m.mu.Unlock()

	m.obsFinished.Inc()
	state := "complete"
	if fails > 0 {
		state = "failed"
	}
	dir := JobDir(jobid)
	m.kc.Put(dir+".state", state)
	m.kc.Put(dir+".ntasks", ntasks)
	m.kc.Put(dir+".nfailed", fails)
	version, err := m.kc.Commit()
	if err != nil {
		return
	}
	// The event carries the committing KVS version so waiters can sync
	// their local root before reading the record (causal consistency).
	if _, err := m.h.PublishEvent("wexec.complete", map[string]any{
		"jobid": jobid, "state": state, "version": version,
	}); err != nil {
		m.h.Log(obs.LevelWarn, "wexec", "complete event for %q failed: %v", jobid, err)
	}
}

// recvStats serves wexec.stats: per-rank task accounting plus this
// service's slice of the broker metrics registry.
func (m *Module) recvStats(msg *wire.Message) {
	m.mu.Lock()
	njobs := len(m.jobs)
	m.mu.Unlock()
	snap := m.h.Broker().Metrics().Snapshot()
	hists := map[string]obs.HistSnapshot{}
	for name, h := range snap.Hists {
		if strings.HasPrefix(name, "wexec.") {
			hists[name] = h
		}
	}
	m.h.Respond(msg, map[string]any{
		"rank":          m.h.Rank(),
		"jobs_tracked":  njobs,
		"tasks":         m.obsTasks.Load(),
		"tasks_failed":  m.obsFailed.Load(),
		"jobs_finished": m.obsFinished.Load(),
		"running":       m.obsRunning.Load(),
		"hists":         hists,
	})
}

// onKill cancels local tasks of a job.
func (m *Module) onKill(msg *wire.Message) {
	var body killBody
	if err := msg.UnpackJSON(&body); err != nil {
		return
	}
	m.mu.Lock()
	cancels := m.cancels[body.JobID]
	delete(m.cancels, body.JobID)
	m.mu.Unlock()
	for _, c := range cancels {
		(*c)()
	}
}

// Idle implements broker.IdleBatcher: slaves aggregate completion counts
// upstream and then forget the jobs, so a slave tracks only counts it
// has not yet forwarded.
func (m *Module) Idle() {
	if m.h.Rank() == 0 {
		return
	}
	m.mu.Lock()
	var batches []doneBody
	for jobid, st := range m.jobs {
		if st.unsentCount > 0 {
			batches = append(batches, doneBody{JobID: jobid, Count: st.unsentCount, Fails: st.unsentFails})
		}
		delete(m.jobs, jobid)
	}
	m.mu.Unlock()
	for _, b := range batches {
		m.h.Send("wexec.done", wire.NodeidUpstream, b)
	}
}
