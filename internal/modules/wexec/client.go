package wexec

import (
	"context"
	"fmt"
	"strconv"

	"fluxgo/internal/broker"
	"fluxgo/internal/kvs"
	"fluxgo/internal/wire"
)

// JobDir returns the KVS directory that holds job id's record:
// lwj.<N/10000>.<(N/100)%100>.<id>, where N is the number the id ends
// in ("42" and "job-42" both give 42; an id with no trailing digits, or
// more than fit in 64 bits, counts as 0). A job commit then rewrites
// directories of at most ~200 entries (a bucket holds 100 numbers, and
// jobsvc's "N" and wexec's "job-N" share one), never the whole job
// history, and a finished bucket is never rewritten again.
func JobDir(id string) string {
	digits := len(id)
	for digits > 0 && id[digits-1] >= '0' && id[digits-1] <= '9' {
		digits--
	}
	n, err := strconv.ParseUint(id[digits:], 10, 64)
	if err != nil {
		n = 0
	}
	b := make([]byte, 0, 16+len(id))
	b = append(b, "lwj."...)
	b = strconv.AppendUint(b, n/10000, 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, n/100%100, 10)
	b = append(b, '.')
	return string(append(b, id...))
}

// JobResult summarizes a completed bulk job.
type JobResult struct {
	JobID   string
	State   string // "complete" or "failed"
	NTasks  int
	NFailed int
}

// Run launches program with args on the given ranks (nil means every
// rank) under the given job id. It returns once the launch event has
// been published; use Wait for completion.
func Run(h *broker.Handle, jobid, program string, args []string, ranks []int) (ntasks int, err error) {
	resp, err := h.RPC("wexec.run", wire.NodeidAny, runBody{
		JobID:   jobid,
		Program: program,
		Args:    args,
		Ranks:   ranks,
	})
	if err != nil {
		return 0, err
	}
	var body struct {
		NTasks int `json:"ntasks"`
	}
	if err := resp.UnpackJSON(&body); err != nil {
		return 0, err
	}
	return body.NTasks, nil
}

// Kill signals every task of the job session-wide.
func Kill(h *broker.Handle, jobid string) error {
	_, err := h.PublishEvent("wexec.kill", killBody{JobID: jobid})
	return err
}

// Wait blocks until the job completes and returns its result, reading
// the final state from the KVS.
func Wait(ctx context.Context, h *broker.Handle, jobid string) (JobResult, error) {
	sub, err := h.Subscribe("wexec.complete")
	if err != nil {
		return JobResult{}, err
	}
	defer sub.Close()

	kc := kvs.NewClient(h)
	// The job may already have completed before we subscribed.
	if res, ok := readResult(kc, jobid); ok {
		return res, nil
	}
	for {
		select {
		case <-ctx.Done():
			return JobResult{}, ctx.Err()
		case ev, ok := <-sub.Chan():
			if !ok {
				return JobResult{}, fmt.Errorf("wexec: subscription closed waiting for %s", jobid)
			}
			var body struct {
				JobID   string `json:"jobid"`
				Version uint64 `json:"version"`
			}
			if err := ev.UnpackJSON(&body); err != nil || body.JobID != jobid {
				continue
			}
			// Sync the local root to the completing commit before reading.
			if err := kc.WaitVersion(body.Version); err != nil {
				return JobResult{}, err
			}
			res, ok := readResult(kc, jobid)
			if !ok {
				return JobResult{}, fmt.Errorf("wexec: job %s record missing after completion", jobid)
			}
			return res, nil
		}
	}
}

// readResult loads the job's final record from the KVS if present.
func readResult(kc *kvs.Client, jobid string) (JobResult, bool) {
	var state string
	dir := JobDir(jobid)
	if err := kc.Get(dir+".state", &state); err != nil {
		return JobResult{}, false
	}
	res := JobResult{JobID: jobid, State: state}
	kc.Get(dir+".ntasks", &res.NTasks)
	kc.Get(dir+".nfailed", &res.NFailed)
	return res, true
}

// Output fetches one task's captured stdout from the KVS.
func Output(h *broker.Handle, jobid string, rank int) (stdout, stderr string, exit int, err error) {
	kc := kvs.NewClient(h)
	prefix := JobDir(jobid) + "." + strconv.Itoa(rank)
	if err = kc.Get(prefix+".exitcode", &exit); err != nil {
		return "", "", 0, err
	}
	kc.Get(prefix+".stdout", &stdout) // missing keys leave zero values
	kc.Get(prefix+".stderr", &stderr)
	return stdout, stderr, exit, nil
}
