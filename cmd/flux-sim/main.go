// Command flux-sim runs a whole comms session in a single process and
// walks through the framework's capabilities: session wire-up, KVS
// commits and fences, collective barriers, bulk program execution with
// KVS-captured I/O, liveness detection with self-healing re-parenting,
// and the hierarchical job model with elastic allocations.
//
//	flux-sim -ranks 64 -arity 2
//
// The "storm" scenario instead drives the broker hot path at scale: a
// 10k-rank tree where every published event fans out to every rank
// through the sharded dispatch pipeline and the encode-once frame
// cache, with binary (codec v3) publish bodies on the request path.
// -bench prints the result as a `go test -bench` line so `make bench`
// can archive it in BENCH_core.json:
//
//	flux-sim -scenario storm -ranks 10000 -events 2048 -bench
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"fluxgo"
	"fluxgo/internal/modules/live"
	"fluxgo/internal/modules/wexec"
	"fluxgo/internal/session"
)

var (
	ranksFlag    = flag.Int("ranks", 64, "session size (simulated nodes)")
	arityFlag    = flag.Int("arity", 2, "tree fan-out")
	scenarioFlag = flag.String("scenario", "demo", "scenario to run: demo (capability walkthrough) or storm (event fan-out at scale)")
	eventsFlag   = flag.Int("events", 2048, "storm: events to publish")
	subsFlag     = flag.Int("subs", 64, "storm: subscriber handles spread across the tree")
	benchFlag    = flag.Bool("bench", false, "storm: print a go-test benchmark line for benchjson")
)

func main() {
	flag.Parse()
	var err error
	switch *scenarioFlag {
	case "demo":
		err = run()
	case "storm":
		err = storm()
	default:
		err = fmt.Errorf("unknown scenario %q", *scenarioFlag)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "flux-sim:", err)
		os.Exit(1)
	}
}

// storm brings up a large session (arity 16 keeps a 10k-rank tree at
// depth 4) and publishes an event storm from concurrent leaf handles.
// Every event is sequenced at the root and relayed to every rank, so
// the scenario exercises exactly the fan-out machinery this repo's
// broker core optimizes: one encode per event per broker, shared by all
// child links, with replay-capable history caches on the way down.
func storm() error {
	ranks, events, subs := *ranksFlag, *eventsFlag, *subsFlag
	const publishers = 8
	events -= events % publishers
	if subs > ranks {
		subs = ranks
	}
	fmt.Printf("event storm: %d ranks (arity 16), %d events, %d subscribers\n", ranks, events, subs)
	start := time.Now()
	sess, err := session.New(session.Options{
		Size:  ranks,
		Arity: 16,
		// Per-hop codec cost on every link (the honest in-process stand-in
		// for a real wire), membership anti-entropy off so the storm is
		// the only traffic, modest per-broker shard counts to keep 10k
		// brokers' worker pools within reason.
		Codec:        true,
		SyncInterval: -1,
		EventHistory: 16,
		Shards:       2,
		// A pub request sequenced behind thousands of queued fan-out
		// relays can legitimately wait minutes at this scale; the storm
		// measures throughput, so the per-RPC liveness deadline is off.
		RPCTimeout: -1,
	})
	if err != nil {
		return err
	}
	defer sess.Close()
	fmt.Printf("  session up in %v\n", time.Since(start))

	// Subscribers spread across the whole tree, each counting the storm
	// and checking the root's total order (strictly ascending sequence
	// numbers once the storm starts).
	var subWG sync.WaitGroup
	subErrs := make(chan error, subs)
	for i := 0; i < subs; i++ {
		rank := i * ranks / subs
		h := sess.Handle(rank)
		sub, err := h.Subscribe("storm")
		if err != nil {
			h.Close()
			return err
		}
		subWG.Add(1)
		go func() {
			defer subWG.Done()
			defer h.Close()
			var last uint64
			for n := 0; n < events; n++ {
				m, ok := <-sub.Chan()
				if !ok {
					subErrs <- fmt.Errorf("rank %d: subscription closed after %d of %d events", rank, n, events)
					return
				}
				if m.Seq <= last {
					subErrs <- fmt.Errorf("rank %d: seq %d after %d (total order broken)", rank, m.Seq, last)
					return
				}
				last = m.Seq
			}
		}()
	}

	// The storm: concurrent publishers at leaf ranks, so each publish
	// first routes up the request tree, is sequenced at the root, and
	// fans back out to all ranks.
	t0 := time.Now()
	var pubWG sync.WaitGroup
	pubErrs := make(chan error, publishers)
	for p := 0; p < publishers; p++ {
		pubWG.Add(1)
		go func(p int) {
			defer pubWG.Done()
			h := sess.Handle(ranks - 1 - p)
			defer h.Close()
			for i := 0; i < events/publishers; i++ {
				if _, err := h.PublishEvent("storm.tick", map[string]int{"p": p, "i": i}); err != nil {
					pubErrs <- fmt.Errorf("publisher %d: %w", p, err)
					return
				}
			}
		}(p)
	}
	pubWG.Wait()
	close(pubErrs)
	for err := range pubErrs {
		return err
	}
	subWG.Wait()
	close(subErrs)
	for err := range subErrs {
		return err
	}
	dur := time.Since(t0)

	deliveries := float64(events) * float64(ranks)
	fmt.Printf("  storm done: %d events through %d ranks in %v\n", events, ranks, dur)
	fmt.Printf("  %.0f events/s sequenced at the root, %.2fM rank-deliveries/s\n",
		float64(events)/dur.Seconds(), deliveries/dur.Seconds()/1e6)
	if *benchFlag {
		tag := fmt.Sprint(ranks)
		if ranks%1000 == 0 {
			tag = fmt.Sprintf("%dk", ranks/1000)
		}
		fmt.Printf("pkg: fluxgo/cmd/flux-sim\n")
		fmt.Printf("BenchmarkEventStorm%s \t       1\t%12d ns/op\n", tag, dur.Nanoseconds())
	}
	return nil
}

func run() error {
	ranks := *ranksFlag
	fmt.Printf("bringing up a %d-rank comms session (arity %d)...\n", ranks, *arityFlag)
	start := time.Now()
	sess, err := fluxgo.NewSession(fluxgo.SessionOptions{
		Size: ranks, Arity: *arityFlag, HBInterval: 50 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer sess.Close()
	fmt.Printf("  session up in %v\n\n", time.Since(start))

	// KVS: commit at a leaf, read back at another leaf.
	h := sess.Handle(ranks - 1)
	defer h.Close()
	kv := fluxgo.NewKVS(h)
	t0 := time.Now()
	kv.Put("demo.greeting", "hello from the leaf")
	ver, err := kv.Commit()
	if err != nil {
		return err
	}
	fmt.Printf("KVS: committed demo.greeting as root version %d in %v\n", ver, time.Since(t0))

	h2 := sess.Handle(ranks / 2)
	defer h2.Close()
	kv2 := fluxgo.NewKVS(h2)
	kv2.WaitVersion(ver)
	var greeting string
	if err := kv2.Get("demo.greeting", &greeting); err != nil {
		return err
	}
	fmt.Printf("KVS: rank %d reads %q (causal consistency via wait_version)\n\n", ranks/2, greeting)

	// Collective barrier across every rank.
	t0 = time.Now()
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			hr := sess.Handle(r)
			defer hr.Close()
			fluxgo.Barrier(hr, "demo-barrier", ranks)
		}(r)
	}
	wg.Wait()
	fmt.Printf("barrier: %d ranks synchronized in %v\n\n", ranks, time.Since(t0))

	// Bulk execution with KVS-captured output.
	t0 = time.Now()
	n, err := fluxgo.Run(h, "demo-job", "hostname", nil, nil)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := wexec.Wait(ctx, h, "demo-job")
	if err != nil {
		return err
	}
	stdout, _, _, _ := wexec.Output(h, "demo-job", 0)
	fmt.Printf("wexec: %d tasks -> %s in %v (rank 0 stdout: %q)\n\n",
		n, res.State, time.Since(t0), stdout)

	// Batch jobs through the job service: oversubscribe, watch the queue
	// drain in order.
	t0 = time.Now()
	var jobIDs []string
	for i := 0; i < 3; i++ {
		id, err := fluxgo.SubmitJob(h, fluxgo.JobSpec{
			Program: "echo", Args: []string{fmt.Sprintf("batch-%d", i)},
			Nodes: ranks/2 + 1, // any two of these cannot co-run
		})
		if err != nil {
			return err
		}
		jobIDs = append(jobIDs, id)
	}
	for _, id := range jobIDs {
		info, err := fluxgo.WaitJob(ctx, h, id)
		if err != nil {
			return err
		}
		if info.State != "complete" {
			return fmt.Errorf("job %s ended %s", id, info.State)
		}
	}
	fmt.Printf("job service: 3 oversubscribed batch jobs serialized and completed in %v\n\n", time.Since(t0))

	// Elastic overlay: grow the session by two ranks, commit to the KVS
	// from a rank that did not exist a moment ago, then gracefully drain
	// one of the newcomers — every step fenced by the membership epoch.
	t0 = time.Now()
	first, err := sess.Grow(2)
	if err != nil {
		return err
	}
	fmt.Printf("elastic: grew to %d live ranks (first new rank %d) at epoch %d in %v\n",
		len(sess.LiveRanks()), first, sess.Epoch(), time.Since(t0))
	hj := sess.Handle(first)
	kvj := fluxgo.NewKVS(hj)
	kvj.Put("demo.from-joiner", first)
	if _, err := kvj.Commit(); err != nil {
		hj.Close()
		return err
	}
	hj.Close()
	fmt.Printf("elastic: joined rank %d committed to the KVS through its new parent\n", first)
	t0 = time.Now()
	if err := sess.Shrink([]int{first + 1}); err != nil {
		return err
	}
	fmt.Printf("elastic: drained rank %d in %v; epoch %d, %d ranks live\n\n",
		first+1, time.Since(t0), sess.Epoch(), len(sess.LiveRanks()))

	// Fault injection: kill an interior broker, watch self-healing.
	victim := 1
	fmt.Printf("killing interior broker at rank %d...\n", victim)
	sess.Kill(victim)
	deadline := time.Now().Add(30 * time.Second)
	child := sess.Tree().Children(victim)
	for _, c := range child {
		for sess.Broker(c).ParentRank() == victim {
			if time.Now().After(deadline) {
				return fmt.Errorf("rank %d never re-parented", c)
			}
			time.Sleep(time.Millisecond)
		}
		fmt.Printf("  rank %d re-parented to rank %d\n", c, sess.Broker(c).ParentRank())
	}
	// Liveness eventually reports the dead rank.
	for {
		down, err := live.Down(h)
		if err != nil {
			return err
		}
		if len(down) > 0 {
			fmt.Printf("  live module reports down ranks: %v\n\n", down)
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("dead rank never detected")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// KVS still works through the healed tree.
	kv.Put("demo.after-failover", true)
	if _, err := kv.Commit(); err != nil {
		return err
	}
	fmt.Println("KVS: commit through the healed tree succeeded")
	fmt.Println("\nflux-sim: all demonstrations completed")
	return nil
}
