// Package tools implements run-time tool support, the paper's Challenge
// 4 (Productivity): code-development tools need "launching of daemons,
// allocation of analysis resources, or the ability for secure
// third-party access to running jobs". Tools here are handle-bearing
// simulated daemons (wexec.HandleProgram) launched co-located with a
// target job's ranks, with access to the job's KVS data and the
// session's monitoring and communication primitives.
package tools

import (
	"context"
	"fmt"
	"strings"

	"fluxgo/internal/broker"
	"fluxgo/internal/kvs"
	"fluxgo/internal/modules/jobsvc"
	"fluxgo/internal/modules/wexec"
	"fluxgo/internal/wire"
)

// JobRanks answers the co-location query: which session ranks does the
// batch job with the given id occupy? Active jobs are answered by the
// job service directly; completed jobs from their KVS provenance record
// (the local slave may briefly lag a just-started job's commit, so the
// service is authoritative).
func JobRanks(h *broker.Handle, jobID string) ([]int, error) {
	if info, err := jobsvc.GetInfo(h, jobID); err == nil && len(info.Ranks) > 0 {
		return info.Ranks, nil
	}
	kc := kvs.NewClient(h)
	var ranks []int
	if err := kc.Get(wexec.JobDir(jobID)+".ranks", &ranks); err != nil {
		return nil, fmt.Errorf("tools: job %s has no rank record: %w", jobID, err)
	}
	return ranks, nil
}

// Attach launches the named tool daemon on every rank of the target
// batch job and waits for it to finish, returning its bulk result. The
// tool must be registered in the session's wexec HandleRegistry; its
// first argument is the target job id, so it can locate the job's data
// in the KVS through its handle.
func Attach(ctx context.Context, h *broker.Handle, toolRun, tool, jobID string, extraArgs ...string) (wexec.JobResult, error) {
	ranks, err := JobRanks(h, jobID)
	if err != nil {
		return wexec.JobResult{}, err
	}
	args := append([]string{jobID}, extraArgs...)
	if _, err := wexec.Run(h, toolRun, tool, args, ranks); err != nil {
		return wexec.JobResult{}, err
	}
	return wexec.Wait(ctx, h, toolRun)
}

// BuiltinTools returns a default tool set.
func BuiltinTools() wexec.HandleRegistry {
	return wexec.HandleRegistry{
		// jobinfo reports the target job's spec and state from the KVS at
		// the tool's own rank — the minimal "third-party access" probe.
		"jobinfo": func(ctx context.Context, h *broker.Handle, rank int, args []string, stdout, stderr *fmtBuilder) int {
			if len(args) < 1 {
				fmt.Fprintln(stderr, "jobinfo: target job id required")
				return 2
			}
			kc := kvs.NewClient(h)
			var state string
			if err := kc.Get(wexec.JobDir(args[0])+".jobstate", &state); err != nil {
				fmt.Fprintf(stderr, "jobinfo: %v\n", err)
				return 1
			}
			var spec struct {
				Program string `json:"program"`
				Nodes   int    `json:"nodes"`
			}
			kc.Get(wexec.JobDir(args[0])+".spec", &spec)
			fmt.Fprintf(stdout, "rank %d: job %s program=%s nodes=%d state=%s\n",
				rank, args[0], spec.Program, spec.Nodes, state)
			return 0
		},
		// epoch reports the local heartbeat epoch, demonstrating tool use
		// of session services beyond the KVS.
		"epoch": func(ctx context.Context, h *broker.Handle, rank int, args []string, stdout, stderr *fmtBuilder) int {
			resp, err := h.RPCContext(ctx, "hb.get", wire.NodeidAny, nil)
			if err != nil {
				fmt.Fprintf(stderr, "epoch: %v\n", err)
				return 1
			}
			var body struct {
				Epoch uint64 `json:"epoch"`
			}
			resp.UnpackJSON(&body)
			fmt.Fprintf(stdout, "rank %d epoch %d\n", rank, body.Epoch)
			return 0
		},
	}
}

// fmtBuilder is wexec's stdio buffer type.
type fmtBuilder = strings.Builder
