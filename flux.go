// Package fluxgo is a Go reproduction of Flux, the next-generation
// resource and job management framework for large HPC centers (Ahn,
// Garlick, Grondona, Lipari, Springmeyer, Schulz — ICPP 2014).
//
// The package is a facade over the full implementation:
//
//   - comms sessions: per-rank Comms Message Brokers (CMB) wired into an
//     event plane, a request/response tree, and a rank-addressed ring
//     (internal/broker, internal/session);
//   - the distributed KVS: SHA-1 content-addressed hash trees with a
//     master at the tree root and caching slaves (internal/kvs);
//   - the Table I comms modules: hb, live, mon, group, barrier, kvs,
//     wexec, resrc (internal/modules/...); Table I's log module is the
//     broker's own log plane (per-rank rings, warn-and-worse forwarded
//     to the root on each heartbeat, flux dmesg to read them);
//   - the unified job model: recursive Flux instances with the parent
//     bounding / child empowerment / parental consent rules
//     (internal/core), over the generalized resource model
//     (internal/resource) and hierarchical schedulers (internal/sched);
//   - PMI-style bootstrap for MPI-like run-times (internal/pmi);
//   - the KAP evaluation harness reproducing the paper's Figures 2-4
//     (internal/kap, internal/model).
//
// Quick start:
//
//	sess, _ := fluxgo.NewSession(fluxgo.SessionOptions{Size: 8})
//	defer sess.Close()
//	h := sess.Handle(3)
//	defer h.Close()
//	kv := fluxgo.NewKVS(h)
//	kv.Put("hello.world", 42)
//	kv.Commit()
package fluxgo

import (
	"context"
	"time"

	"fluxgo/internal/broker"
	"fluxgo/internal/clock"
	"fluxgo/internal/core"
	"fluxgo/internal/kvs"
	"fluxgo/internal/modules/barrier"
	"fluxgo/internal/modules/group"
	"fluxgo/internal/modules/hb"
	"fluxgo/internal/modules/jobsvc"
	"fluxgo/internal/modules/live"
	"fluxgo/internal/modules/resrc"
	"fluxgo/internal/modules/wexec"
	"fluxgo/internal/obs"
	"fluxgo/internal/pmi"
	"fluxgo/internal/resource"
	"fluxgo/internal/sched"
	"fluxgo/internal/session"
)

// Core re-exported types. See the respective internal packages for full
// documentation.
type (
	// Session is a comms session: one CMB broker per rank, wired into the
	// three overlay planes of the paper's Fig. 1.
	Session = session.Session
	// Handle is a program's connection to its local broker (RPCs, events,
	// responses) — the flux_t handle.
	Handle = broker.Handle
	// KVS is the distributed key-value store client, with the paper's
	// call set: Put, Commit, Fence, Get, Watch, GetVersion, WaitVersion.
	KVS = kvs.Client
	// Instance is a Flux job under the unified job model: an independent
	// RJMS instance that runs programs and spawns recursive sub-instances.
	Instance = core.Instance
	// InstanceOptions parameterizes instances (policy, programs, bounds).
	InstanceOptions = core.Options
	// Resource is a vertex of the generalized resource model graph.
	Resource = resource.Resource
	// Request is a multi-dimensional resource request.
	Request = resource.Request
	// ClusterSpec describes a cluster resource graph to build.
	ClusterSpec = resource.ClusterSpec
	// PMI is the process-management interface for MPI-style bootstrap.
	PMI = pmi.PMI
	// JobResult summarizes a completed bulk job.
	JobResult = wexec.JobResult
	// Programs is the simulated-program registry for wexec.
	Programs = wexec.Registry
	// JobSpec describes a job for the batch job service.
	JobSpec = jobsvc.Spec
	// JobInfo is a batch job's record.
	JobInfo = jobsvc.Info
)

// Scheduling policies.
type (
	// FCFS is strict first-come-first-served scheduling.
	FCFS = sched.FCFS
	// EASY is FCFS with EASY backfilling.
	EASY = sched.EASY
	// Conservative is FCFS with conservative backfilling: no queued
	// job's reservation may slip.
	Conservative = sched.Conservative
)

// SessionOptions configures NewSession.
type SessionOptions struct {
	// Size is the number of ranks (simulated nodes). Required.
	Size int
	// Arity is the tree fan-out (default 2, the paper's binary tree).
	Arity int
	// HBInterval is the heartbeat period (default 2s).
	HBInterval time.Duration
	// Programs extends the wexec simulated-program registry.
	Programs Programs
	// Clock overrides the time source (deterministic tests).
	Clock clock.Clock
	// Codec makes every inter-broker hop pay a serialization cost
	// proportional to message size (used by benchmarks).
	Codec bool
}

// NewSession starts an in-process comms session with the standard
// comms-module set loaded: kvs, hb, live, group, barrier, and wexec
// at every rank, plus the resource and batch-job services
// (resrc, job) rooted at rank 0.
func NewSession(opts SessionOptions) (*Session, error) {
	return session.New(session.Options{
		Size:    opts.Size,
		Arity:   opts.Arity,
		Clock:   opts.Clock,
		Codec:   opts.Codec,
		Modules: standardModules(opts),
	})
}

// standardModules is NewSession's comms-module set.
func standardModules(opts SessionOptions) []session.ModuleFactory {
	return []session.ModuleFactory{
		kvs.Factory(kvs.ModuleConfig{}),
		hb.Factory(hb.Config{Interval: opts.HBInterval}),
		live.Factory(live.Config{}),
		group.Factory,
		barrier.Factory,
		wexec.Factory(wexec.Config{Programs: opts.Programs}),
		resrc.Factory(resrc.Config{}),
		jobsvc.Factory(jobsvc.Config{Backfill: true}),
	}
}

// SubmitJob enqueues a job with the session's batch job service and
// returns its id.
func SubmitJob(h *Handle, spec JobSpec) (string, error) {
	return jobsvc.Submit(h, spec)
}

// WaitJob blocks until a batch job reaches a terminal state and returns
// its final record.
func WaitJob(ctx context.Context, h *Handle, id string) (*JobInfo, error) {
	return jobsvc.Wait(ctx, h, id)
}

// ListJobs returns the batch queue's active jobs.
func ListJobs(h *Handle) ([]*JobInfo, error) {
	return jobsvc.List(h)
}

// CancelJob cancels a queued job or signals a running one.
func CancelJob(h *Handle, id string) error {
	return jobsvc.Cancel(h, id)
}

// NewKVS returns a KVS client over a handle.
func NewKVS(h *Handle) *KVS { return kvs.NewClient(h) }

// Barrier blocks until nprocs processes have entered the barrier with
// the same name.
func Barrier(h *Handle, name string, nprocs int) error {
	return barrier.Enter(h, name, nprocs)
}

// NewPMI creates a PMI context for one process of an nprocs-wide job.
func NewPMI(h *Handle, jobid string, rank, size int) (*PMI, error) {
	return pmi.New(h, jobid, rank, size)
}

// BuildCluster constructs a regular cluster resource graph.
func BuildCluster(spec ClusterSpec) (*Resource, error) {
	return resource.BuildCluster(spec)
}

// NewRootInstance creates the root Flux instance of a job hierarchy over
// a cluster resource graph.
func NewRootInstance(cluster *Resource, opts InstanceOptions) (*Instance, error) {
	return core.NewRoot(cluster, opts)
}

// Log records an entry in the handle's broker log ring, with facility
// as its subsystem. Warn-and-worse entries are forwarded toward the
// session root on each heartbeat; the rest stay in the rank's ring
// until flux dmesg pulls them. It always returns nil.
func Log(h *Handle, facility string, level int, format string, args ...any) error {
	h.Log(level, facility, format, args...)
	return nil
}

// Run launches a simulated program in bulk on the given ranks (nil for
// all ranks) via the wexec comms module.
func Run(h *Handle, jobid, program string, args []string, ranks []int) (int, error) {
	return wexec.Run(h, jobid, program, args, ranks)
}

// Log severity levels (syslog-numbered; lower is more severe).
const (
	LogErr    = obs.LevelErr
	LogInfo   = obs.LevelInfo
	LogDebug  = obs.LevelDebug
	LogNotice = obs.LevelNotice
)
