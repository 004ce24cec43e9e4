// A batch queue over the comms session: the job service schedules
// submitted jobs against the resource service, launches them through
// wexec, and records every state transition in the KVS — the RJMS
// workflow (submit, queue, run, monitor) of Section II, end to end over
// the run-time components of Section IV.
//
//	go run ./examples/batch-queue
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"fluxgo/internal/kvs"
	"fluxgo/internal/modules/jobsvc"
	"fluxgo/internal/modules/resrc"
	"fluxgo/internal/modules/wexec"
	"fluxgo/internal/session"
)

func main() {
	// An 8-node session running the RJMS service stack: kvs (state),
	// resrc (inventory + allocation), wexec (bulk launch), and the job
	// service with backfilling at the root.
	sess, err := session.New(session.Options{
		Size: 8,
		Modules: []session.ModuleFactory{
			kvs.Factory(kvs.ModuleConfig{}),
			resrc.Factory(resrc.Config{}),
			wexec.Factory(wexec.Config{}),
			jobsvc.Factory(jobsvc.Config{Backfill: true}),
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	// Users submit from any rank; requests route upstream to the root
	// service instance.
	h := sess.Handle(5)
	defer h.Close()

	// Fill the machine, then over-subscribe it so jobs queue.
	var ids []string
	for i, spec := range []jobsvc.Spec{
		{Program: "hostname", Nodes: 6},
		{Program: "echo", Args: []string{"first wave"}, Nodes: 4},
		{Program: "echo", Args: []string{"backfill-me"}, Nodes: 2},
		{Program: "fail", Args: []string{"1"}, Nodes: 1},
	} {
		id, err := jobsvc.Submit(h, spec)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("submitted job %s: %s x%d nodes\n", id, spec.Program, spec.Nodes)
		ids = append(ids, id)
		_ = i
	}

	// Watch the queue drain.
	jobs, err := jobsvc.List(h)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nactive jobs right after submission: %d\n", len(jobs))
	for _, j := range jobs {
		fmt.Printf("  job %s: %-9s (%s, %d nodes)\n", j.ID, j.State, j.Spec.Program, j.Spec.Nodes)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	fmt.Println("\nwaiting for completions:")
	for _, id := range ids {
		info, err := jobsvc.Wait(ctx, h, id)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  job %s -> %s on ranks %v\n", info.ID, info.State, info.Ranks)
	}

	// The KVS holds the provenance trail for every job. Reads at a slave
	// are weakly consistent (they may lag the master until the next
	// setroot event), so read the trail at rank 0, whose view is current.
	h0 := sess.Handle(0)
	defer h0.Close()
	kc := kvs.NewClient(h0)
	var state string
	dir := wexec.JobDir(ids[3])
	kc.Get(dir+".jobstate", &state)
	fmt.Printf("\nprovenance: %s.jobstate = %q in the KVS\n", dir, state)
	stdout, _, _, _ := wexec.Output(h, "job-"+ids[0], 0)
	fmt.Printf("provenance: job %s rank-0 stdout = %q\n", ids[0], stdout)
}
