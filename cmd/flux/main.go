// Command flux is the command-line utility wrapping modular Flux
// sub-commands, the analogue of the paper's flux(1) tool. It connects
// to any broker of a TCP-deployed session (see cmd/flux-broker).
//
// Usage:
//
//	flux [-connect host:port] [-key-file f] <subcommand> [args]
//
// Sub-commands:
//
//	ping [rank]              round-trip to the local broker or a rank
//	info                     session parameters of the connected broker
//	lsmod                    comms modules loaded at the connected broker
//	rmmod <name>             live-unload a comms module at the connected broker
//	kvs get <key>            print a KVS value or directory listing
//	kvs put <key> <json>     put and commit one value
//	kvs dir <key>            list a directory
//	kvs version              current root version
//	kvs watch <key>          print updates until interrupted
//	kvs checkpoint [rank]    force the durable tier to fold its WAL into a pack
//	kvs storage [rank]       durable-tier stats (WAL bytes, packs, recovery counts)
//	event pub <topic>        publish an event
//	event sub <prefix>       print matching events until interrupted
//	run <jobid> <prog> [...] bulk-launch a simulated program on all ranks
//	submit [-N n] <prog> [...] enqueue a job with the job service
//	queue                    active (queued + running) jobs
//	cancel <id>              cancel a queued or running job
//	wait <id>                block until a job completes, print its record
//	dmesg [--rank N] [--level L] [--follow]
//	                         merged time-ordered log records from all live ranks
//	                         (or one rank); --follow polls for new records
//	dump [-o file]           flight-recorder snapshot of every live rank as JSON
//	up                       ranks currently considered down by live
//	stats [--rank N]         broker counters and metrics (local or rank-addressed)
//	restart <rank>           readmit a killed or crashed rank (durable state reloads from disk)
//	top                      per-rank broker activity and route latency table
//	trace <id>               assembled cross-rank request tree of one traced message
//	resources                unallocated ranks per the resource service
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"time"

	"fluxgo/internal/client"
	"fluxgo/internal/obs"
	"fluxgo/internal/wire"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: flux [-connect host:port] [-key-file f] <subcommand> [args]")
	os.Exit(2)
}

func main() {
	// Minimal hand-rolled global flags so sub-command args stay clean.
	args := os.Args[1:]
	connect := "127.0.0.1:9600"
	key := []byte("flux-session")
	for len(args) >= 2 {
		switch args[0] {
		case "-connect":
			connect = args[1]
			args = args[2:]
		case "-key-file":
			b, err := os.ReadFile(args[1])
			fatalIf(err)
			key = b
			args = args[2:]
		default:
			goto flagsDone
		}
	}
flagsDone:
	if len(args) == 0 {
		usage()
	}
	c, err := client.Dial(connect, key)
	fatalIf(err)
	defer c.Close()

	switch args[0] {
	case "ping":
		cmdPing(c, args[1:])
	case "info":
		cmdJSON(c, wire.TopicInfo, wire.NodeidAny, nil)
	case "lsmod":
		cmdJSON(c, wire.TopicLsmod, wire.NodeidAny, nil)
	case "rmmod":
		if len(args) != 2 {
			usage()
		}
		cmdJSON(c, wire.TopicRmmod, wire.NodeidAny, map[string]string{"name": args[1]})
	case "kvs":
		cmdKVS(c, args[1:])
	case "event":
		cmdEvent(c, args[1:])
	case "run":
		cmdRun(c, args[1:])
	case "submit":
		cmdSubmit(c, args[1:])
	case "queue":
		cmdJSON(c, "job.list", wire.NodeidAny, nil)
	case "cancel":
		if len(args) != 2 {
			usage()
		}
		cmdJSON(c, "job.cancel", wire.NodeidAny, map[string]string{"id": args[1]})
	case "wait":
		if len(args) != 2 {
			usage()
		}
		cmdWaitJob(c, args[1])
	case "dmesg":
		cmdDmesg(c, args[1:])
	case "dump":
		cmdDump(c, args[1:])
	case "up":
		cmdJSON(c, "live.query", wire.NodeidAny, nil)
	case "stats":
		nodeid := wire.NodeidAny
		rest := args[1:]
		if len(rest) > 0 && rest[0] == "--rank" {
			rest = rest[1:]
		}
		if len(rest) > 0 {
			r, err := strconv.Atoi(rest[0])
			fatalIf(err)
			nodeid = uint32(r)
		}
		cmdJSON(c, wire.TopicStats, nodeid, nil)
	case "grow":
		if len(args) != 2 {
			usage()
		}
		n, err := strconv.Atoi(args[1])
		fatalIf(err)
		cmdJSON(c, wire.TopicGrow, wire.NodeidAny, map[string]int{"n": n})
	case "restart":
		if len(args) != 2 {
			usage()
		}
		r, err := strconv.Atoi(args[1])
		fatalIf(err)
		cmdJSON(c, wire.TopicRestart, wire.NodeidAny, map[string]int{"rank": r})
	case "shrink":
		if len(args) < 2 {
			usage()
		}
		ranks := make([]int, 0, len(args)-1)
		for _, a := range args[1:] {
			r, err := strconv.Atoi(a)
			fatalIf(err)
			ranks = append(ranks, r)
		}
		cmdJSON(c, wire.TopicShrink, wire.NodeidAny, map[string][]int{"ranks": ranks})
	case "top":
		cmdTop(c)
	case "trace":
		if len(args) != 2 {
			usage()
		}
		cmdTrace(c, args[1])
	case "resources":
		cmdJSON(c, "resrc.avail", wire.NodeidAny, nil)
	default:
		usage()
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "flux:", err)
		os.Exit(1)
	}
}

// cmdJSON performs one RPC and pretty-prints the JSON response.
func cmdJSON(c *client.Client, topic string, nodeid uint32, body any) {
	resp, err := c.RPC(topic, nodeid, body)
	fatalIf(err)
	var out any
	fatalIf(resp.UnpackJSON(&out))
	b, _ := json.MarshalIndent(out, "", "  ")
	fmt.Println(string(b))
}

func cmdPing(c *client.Client, args []string) {
	nodeid := wire.NodeidAny
	if len(args) > 0 {
		r, err := strconv.Atoi(args[0])
		fatalIf(err)
		nodeid = uint32(r)
	}
	start := time.Now()
	resp, err := c.RPC(wire.TopicPing, nodeid, map[string]string{"pad": "flux-ping"})
	fatalIf(err)
	var body struct {
		Rank int `json:"rank"`
		Hops int `json:"hops"`
	}
	fatalIf(resp.UnpackJSON(&body))
	fmt.Printf("pong from rank %d: hops=%d time=%v trace=%#x\n", body.Rank, body.Hops, time.Since(start), resp.TraceID)
}

func cmdKVS(c *client.Client, args []string) {
	if len(args) == 0 {
		usage()
	}
	switch args[0] {
	case "get", "dir":
		if len(args) != 2 {
			usage()
		}
		cmdJSON(c, "kvs.get", wire.NodeidAny, map[string]string{"key": args[1]})
	case "put":
		if len(args) != 3 {
			usage()
		}
		putAndCommit(c, args[1], json.RawMessage(args[2]))
	case "version":
		cmdJSON(c, "kvs.getversion", wire.NodeidAny, nil)
	case "checkpoint":
		cmdJSON(c, "kvs.checkpoint", rankOrAny(args[1:]), nil)
	case "storage":
		cmdJSON(c, "kvs.storage", rankOrAny(args[1:]), nil)
	case "watch":
		if len(args) != 2 {
			usage()
		}
		watchKey(c, args[1])
	default:
		usage()
	}
}

// rankOrAny parses an optional trailing rank argument; absent means the
// connected broker answers (NodeidAny).
func rankOrAny(args []string) uint32 {
	if len(args) == 0 {
		return wire.NodeidAny
	}
	r, err := strconv.Atoi(args[0])
	fatalIf(err)
	return uint32(r)
}

// putAndCommit issues the put + single-participant fence the KVS client
// library would, using raw RPCs (the CLI links only against the wire
// protocol, like an external tool would).
func putAndCommit(c *client.Client, key string, val json.RawMessage) {
	// The kvs module computes and checks the content hash; build the
	// value object encoding it expects: 'v' + JSON bytes.
	data := append([]byte{'v'}, val...)
	ref := sha1Hex(data)
	_, err := c.RPC("kvs.put", wire.NodeidAny, map[string]any{
		"key": key, "ref": ref, "data": data,
	})
	fatalIf(err)
	name := fmt.Sprintf("flux-cli-%d", time.Now().UnixNano())
	resp, err := c.RPC("kvs.fence", wire.NodeidAny, map[string]any{
		"name":   name,
		"nprocs": 1,
		"entries": []map[string]any{{
			"id":  name + "/cli",
			"ops": []map[string]any{{"key": key, "ref": ref}},
		}},
	})
	fatalIf(err)
	var body struct {
		Version uint64 `json:"version"`
	}
	fatalIf(resp.UnpackJSON(&body))
	fmt.Printf("committed as version %d\n", body.Version)
}

func watchKey(c *client.Client, key string) {
	sub, err := c.Subscribe("kvs.setroot")
	fatalIf(err)
	defer sub.Close()
	show := func() {
		resp, err := c.RPC("kvs.get", wire.NodeidAny, map[string]string{"key": key})
		if err != nil {
			fmt.Printf("%s: %v\n", key, err)
			return
		}
		var out any
		resp.UnpackJSON(&out)
		b, _ := json.Marshal(out)
		fmt.Printf("%s = %s\n", key, b)
	}
	show()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	for {
		select {
		case <-sub.Chan():
			show()
		case <-sig:
			return
		}
	}
}

func cmdEvent(c *client.Client, args []string) {
	if len(args) < 2 {
		usage()
	}
	switch args[0] {
	case "pub":
		resp, err := c.RPC(wire.TopicPub, wire.NodeidAny, map[string]any{
			"topic": args[1], "payload": map[string]string{},
		})
		fatalIf(err)
		var body struct {
			Seq uint64 `json:"seq"`
		}
		fatalIf(resp.UnpackJSON(&body))
		fmt.Printf("published seq %d\n", body.Seq)
	case "sub":
		sub, err := c.Subscribe(args[1])
		fatalIf(err)
		defer sub.Close()
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		for {
			select {
			case ev := <-sub.Chan():
				fmt.Printf("[%d] %s %s\n", ev.Seq, ev.Topic, ev.Payload)
			case <-sig:
				return
			}
		}
	default:
		usage()
	}
}

func cmdRun(c *client.Client, args []string) {
	if len(args) < 2 {
		usage()
	}
	sub, err := c.Subscribe("wexec.complete")
	fatalIf(err)
	defer sub.Close()
	jobid, prog := args[0], args[1]
	resp, err := c.RPC("wexec.run", wire.NodeidAny, map[string]any{
		"jobid": jobid, "program": prog, "args": args[2:],
	})
	fatalIf(err)
	var body struct {
		NTasks int `json:"ntasks"`
	}
	fatalIf(resp.UnpackJSON(&body))
	fmt.Printf("launched %s: %d tasks\n", jobid, body.NTasks)
	for ev := range sub.Chan() {
		var done struct {
			JobID string `json:"jobid"`
			State string `json:"state"`
		}
		if ev.UnpackJSON(&done) == nil && done.JobID == jobid {
			fmt.Printf("job %s: %s\n", jobid, done.State)
			return
		}
	}
}

func cmdSubmit(c *client.Client, args []string) {
	nodes := 1
	if len(args) >= 2 && args[0] == "-N" {
		n, err := strconv.Atoi(args[1])
		fatalIf(err)
		nodes = n
		args = args[2:]
	}
	if len(args) < 1 {
		usage()
	}
	resp, err := c.RPC("job.submit", wire.NodeidAny, map[string]any{
		"program": args[0], "args": args[1:], "nodes": nodes,
	})
	fatalIf(err)
	var body struct {
		ID string `json:"id"`
	}
	fatalIf(resp.UnpackJSON(&body))
	fmt.Printf("submitted job %s\n", body.ID)
}

func cmdWaitJob(c *client.Client, id string) {
	sub, err := c.Subscribe("job.state")
	fatalIf(err)
	defer sub.Close()
	show := func() bool {
		resp, err := c.RPC("job.info", wire.NodeidAny, map[string]string{"id": id})
		if err != nil {
			return false
		}
		var info struct {
			State string `json:"state"`
		}
		resp.UnpackJSON(&info)
		switch info.State {
		case "complete", "failed", "cancelled":
			var out any
			resp.UnpackJSON(&out)
			b, _ := json.MarshalIndent(out, "", "  ")
			fmt.Println(string(b))
			return true
		}
		return false
	}
	if show() {
		return
	}
	for ev := range sub.Chan() {
		var se struct {
			ID string `json:"id"`
		}
		if ev.UnpackJSON(&se) == nil && se.ID == id && show() {
			return
		}
	}
}

// sessionSize asks the connected broker for the session size.
func sessionSize(c *client.Client) int {
	resp, err := c.RPC(wire.TopicInfo, wire.NodeidAny, nil)
	fatalIf(err)
	var info struct {
		Size int `json:"size"`
	}
	fatalIf(resp.UnpackJSON(&info))
	return info.Size
}

// cmdTop prints one row of broker activity per rank: request/response
// counters and the route-request latency percentiles, flux-top style.
func cmdTop(c *client.Client) {
	size := sessionSize(c)
	fmt.Printf("%5s %5s %4s %9s %9s %9s %7s %7s %4s %4s %5s %5s  %-23s %7s\n",
		"RANK", "EPOCH", "LIVE", "REQS", "RESPS", "EVENTS", "GAPS", "ERRS",
		"JOIN", "LEAV", "DRAIN", "STALE", "ROUTE p50/p95/p99(us)", "SPANS")
	for r := 0; r < size; r++ {
		resp, err := c.RPC(wire.TopicStats, uint32(r), nil)
		if err != nil {
			fmt.Printf("%5d  unreachable: %v\n", r, err)
			continue
		}
		var st struct {
			Epoch        uint32       `json:"epoch"`
			LiveSize     int          `json:"live_size"`
			Joins        uint64       `json:"joins"`
			Leaves       uint64       `json:"leaves"`
			Drains       uint64       `json:"drains"`
			EpochRejects uint64       `json:"epoch_rejects"`
			TraceSpans   int          `json:"trace_spans"`
			Metrics      obs.Snapshot `json:"metrics"`
		}
		if err := resp.UnpackJSON(&st); err != nil {
			fmt.Printf("%5d  bad stats: %v\n", r, err)
			continue
		}
		h := st.Metrics.Hists[wire.MetricRouteRequestNS]
		us := func(ns uint64) float64 { return float64(ns) / 1e3 }
		fmt.Printf("%5d %5d %4d %9d %9d %9d %7d %7d %4d %4d %5d %5d  %7.1f/%7.1f/%7.1f %7d\n",
			r, st.Epoch, st.LiveSize,
			st.Metrics.Counters[wire.MetricRequestsRouted],
			st.Metrics.Counters[wire.MetricResponsesRouted],
			st.Metrics.Counters[wire.MetricEventsApplied],
			st.Metrics.Counters[wire.MetricEventSeqGaps],
			st.Metrics.Counters[wire.MetricSendErrors]+st.Metrics.Counters[wire.MetricInflightFailed],
			st.Joins, st.Leaves, st.Drains, st.EpochRejects,
			us(h.P50NS), us(h.P95NS), us(h.P99NS),
			st.TraceSpans)
	}
}

// cmdTrace gathers one trace's spans session-wide (one tree-reduced RPC
// at rank 0), assembles the causal request tree, and prints it indented
// with per-hop latencies. Hops on the critical path — the chain that
// bounded end-to-end latency — are marked with '*'.
func cmdTrace(c *client.Client, idArg string) {
	id, err := strconv.ParseUint(idArg, 0, 64)
	fatalIf(err)
	resp, err := c.RPC(wire.TopicTrace, 0, map[string]any{"id": id, "gather": true})
	fatalIf(err)
	var body struct {
		Spans  []obs.Span `json:"spans"`
		Ranks  []int      `json:"ranks"`
		Errors []string   `json:"errors"`
	}
	fatalIf(resp.UnpackJSON(&body))
	for _, e := range body.Errors {
		fmt.Fprintf(os.Stderr, "flux: %s\n", e)
	}
	if len(body.Spans) == 0 {
		fmt.Printf("no spans recorded for trace %s\n", idArg)
		return
	}
	tree := obs.AssembleTrace(body.Spans)
	onPath := map[*obs.TraceNode]bool{}
	for _, n := range tree.CriticalPath() {
		onPath[n] = true
	}
	fmt.Printf("trace %#x: %d spans across %d ranks, end-to-end %.1fus\n",
		tree.Trace, len(tree.Spans), len(body.Ranks), float64(tree.TotalNS())/1e3)
	var walk func(n *obs.TraceNode, depth int)
	walk = func(n *obs.TraceNode, depth int) {
		s := n.Span
		mark := " "
		if onPath[n] {
			mark = "*"
		}
		errs := ""
		if s.Errnum != 0 {
			errs = fmt.Sprintf("  errno=%d", s.Errnum)
		}
		fmt.Printf("%s %*shop %d rank %d  %-8s %-24s via %-14s queue %8.1fus work %8.1fus%s\n",
			mark, depth*2, "", s.Hop, s.Rank, s.Kind, s.Topic, s.Link,
			float64(s.QueueNS)/1e3, float64(s.WorkNS)/1e3, errs)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, r := range tree.Roots {
		walk(r, 0)
	}
	if path := tree.CriticalPath(); len(path) > 0 {
		fmt.Printf("critical path: %d hops, ends at rank %d (%s)\n",
			len(path), path[len(path)-1].Span.Rank, path[len(path)-1].Span.Topic)
	}
}

// cmdDmesg prints merged, time-ordered log records. By default it asks
// rank 0 for a session-wide tree gather (including the root's
// aggregation ring, which still holds warnings from dead ranks);
// --rank N reads one broker's local ring; --follow keeps polling with a
// time cursor, tail -f style.
func cmdDmesg(c *client.Client, args []string) {
	rank := -1
	level := 0
	follow := false
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "--rank":
			i++
			if i >= len(args) {
				usage()
			}
			r, err := strconv.Atoi(args[i])
			fatalIf(err)
			rank = r
		case "--level":
			i++
			if i >= len(args) {
				usage()
			}
			l, ok := obs.ParseLevel(args[i])
			if !ok {
				fatalIf(fmt.Errorf("unknown level %q", args[i]))
			}
			level = l
		case "--follow", "-f":
			follow = true
		default:
			usage()
		}
	}
	query := func(sinceNS int64) []obs.Record {
		body := map[string]any{"level": level, "since_ns": sinceNS}
		nodeid := uint32(0)
		if rank >= 0 {
			nodeid = uint32(rank)
		} else {
			body["subtree"] = true
			body["fwd"] = true
		}
		resp, err := c.RPC(wire.TopicDmesg, nodeid, body)
		fatalIf(err)
		var out struct {
			Records []obs.Record `json:"records"`
			Errors  []string     `json:"errors"`
		}
		fatalIf(resp.UnpackJSON(&out))
		for _, e := range out.Errors {
			fmt.Fprintf(os.Stderr, "flux: %s\n", e)
		}
		return out.Records
	}
	var cursor int64
	for {
		recs := query(cursor)
		for _, r := range recs {
			printRecord(r)
			if r.TimeNS > cursor {
				cursor = r.TimeNS
			}
		}
		if !follow {
			return
		}
		time.Sleep(500 * time.Millisecond)
	}
}

// printRecord renders one log record dmesg-style.
func printRecord(r obs.Record) {
	t := time.Unix(0, r.TimeNS)
	fmt.Printf("%s rank %3d epoch %2d [%-6s] %s: %s\n",
		t.Format("2006-01-02T15:04:05.000"), r.Rank, r.Epoch, obs.LevelName(r.Level), r.Sub, r.Msg)
}

// cmdDump snapshots every live rank's flight-recorder state (recent
// logs, trace spans, metrics) into one combined JSON dump, to stdout or
// a file with -o.
func cmdDump(c *client.Client, args []string) {
	outFile := ""
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "-o":
			i++
			if i >= len(args) {
				usage()
			}
			outFile = args[i]
		default:
			usage()
		}
	}
	resp, err := c.RPC(wire.TopicInfo, wire.NodeidAny, nil)
	fatalIf(err)
	var info struct {
		Size       int   `json:"size"`
		Tombstones []int `json:"tombstones"`
	}
	fatalIf(resp.UnpackJSON(&info))
	dead := map[int]bool{}
	for _, r := range info.Tombstones {
		dead[r] = true
	}
	d := obs.FlightDump{Reason: "flux-dump", WhenNS: time.Now().UnixNano()}
	for r := 0; r < info.Size; r++ {
		if dead[r] {
			continue
		}
		resp, err := c.RPC(wire.TopicDump, uint32(r), nil)
		if err != nil {
			d.Errors = append(d.Errors, fmt.Sprintf("rank %d: %v", r, err))
			continue
		}
		var fr obs.FlightRank
		if err := resp.UnpackJSON(&fr); err != nil {
			d.Errors = append(d.Errors, fmt.Sprintf("rank %d: %v", r, err))
			continue
		}
		d.Ranks = append(d.Ranks, fr)
	}
	data, err := json.MarshalIndent(d, "", " ")
	fatalIf(err)
	if outFile == "" {
		fmt.Println(string(data))
		return
	}
	fatalIf(os.WriteFile(outFile, data, 0o644))
	fmt.Printf("wrote %s (%d ranks, %d errors)\n", outFile, len(d.Ranks), len(d.Errors))
}
