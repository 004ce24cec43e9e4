package broker

// TBON log aggregation and the flight recorder.
//
// Two complementary paths move log records around the session:
//
//   - Heartbeat forwarding (push): on every hb event, a non-root broker
//     batches its not-yet-forwarded warn+ records and fire-and-forgets
//     them one hop upstream (cmb.logfwd). Each interior broker folds the
//     batch into its aggregation ring and relays it on, so warnings
//     climb to the root at heartbeat cadence and survive the origin
//     rank's death. Debug/info chatter stays rank-local.
//
//   - dmesg gather (pull): cmb.dmesg with the subtree flag makes a
//     broker tree-reduce its whole live subtree — snapshot the local
//     ring, recursively gather each live gather-child, merge
//     time-ordered. At the root this is the session-wide flux dmesg.
//     A child whose subtree RPC fails degrades to flat per-rank
//     queries, so one dead interior rank costs its own records only;
//     ranks a child's answer misses are queried flat as well.
//
// Records carry (rank, boot, seq) so the two paths dedupe cleanly.

import (
	"context"
	"fmt"
	"time"

	"fluxgo/internal/obs"
	"fluxgo/internal/wire"
)

// maxFwdBatch bounds one heartbeat's upstream batch.
const maxFwdBatch = 256

// dmesgChildTimeout bounds the recursive gather RPC to one child;
// dmesgRankTimeout bounds one flat fallback query.
const (
	dmesgChildTimeout = 3 * time.Second
	dmesgRankTimeout  = time.Second
)

// dmesgBody is the cmb.dmesg request payload.
type dmesgBody struct {
	MaxLevel int   `json:"level,omitempty"`    // keep Level <= MaxLevel; 0 keeps all
	Max      int   `json:"max,omitempty"`      // newest N records; 0 keeps all
	SinceNS  int64 `json:"since_ns,omitempty"` // records after this instant (follow cursor)
	Subtree  bool  `json:"subtree,omitempty"`  // tree-reduce the live subtree
	Fwd      bool  `json:"fwd,omitempty"`      // include the aggregation ring (dead ranks' warns)
}

// dmesgResp is the cmb.dmesg response payload.
type dmesgResp struct {
	Rank    int          `json:"rank"`
	Epoch   uint32       `json:"epoch"`
	Records []obs.Record `json:"records"`
	Ranks   []int        `json:"ranks"`            // ranks merged into Records
	Errors  []string     `json:"errors,omitempty"` // ranks that could not be reached
}

// logFwdBody is one upstream batch of warn+ records.
type logFwdBody struct {
	From    int          `json:"from"`
	Records []obs.Record `json:"records"`
}

// Forwarded exposes the aggregation ring: warn+ records this broker
// received from its subtree via heartbeat forwarding.
func (b *Broker) Forwarded() *obs.LogRing { return b.fwd }

// dmesgFilter translates a request into a ring filter.
func (d dmesgBody) filter() obs.LogFilter {
	return obs.LogFilter{MaxLevel: d.MaxLevel, SinceNS: d.SinceNS, Max: d.Max}
}

// serveDmesg handles cmb.dmesg. The local snapshot is answered on the
// broker loop; a subtree gather issues RPCs and must not block the
// loop, so it runs as tracked background work (like rmmod).
func (b *Broker) serveDmesg(m *wire.Message) {
	var body dmesgBody
	if len(m.Payload) > 0 {
		if err := m.UnpackJSON(&body); err != nil {
			b.respondErr(m, ErrnoInval, err.Error())
			return
		}
	}
	if !body.Subtree {
		b.respondBody(m, b.localDmesg(body))
		return
	}
	b.bg.Add(1)
	go func() {
		defer b.bg.Done()
		b.respondBody(m, b.gatherDmesg(body))
	}()
}

// respondBody answers a telemetry request with a JSON body.
func (b *Broker) respondBody(m *wire.Message, v any) {
	resp, err := wire.NewResponse(m, v)
	if err != nil {
		b.respondErr(m, ErrnoInval, err.Error())
		return
	}
	b.routeResponse(inbound{msg: resp})
}

// localDmesg snapshots this broker's own records (plus, on request, its
// aggregation ring).
func (b *Broker) localDmesg(body dmesgBody) dmesgResp {
	recs := b.log.Ring().Snapshot(body.filter())
	if body.Fwd {
		recs = obs.DedupeRecords(obs.MergeRecords(recs, b.fwd.Snapshot(body.filter())))
	}
	if recs == nil {
		recs = []obs.Record{}
	}
	return dmesgResp{Rank: b.cfg.Rank, Epoch: b.Epoch(), Records: recs, Ranks: []int{b.cfg.Rank}}
}

// gatherDmesg tree-reduces the live subtree rooted at this broker: its
// own records merged with each gather-child's recursive gather,
// time-ordered and deduped.
func (b *Broker) gatherDmesg(body dmesgBody) dmesgResp {
	out := b.localDmesg(body)
	parts := [][]obs.Record{out.Records}
	sub, flat := body, body
	sub.Subtree, flat.Subtree = true, false
	ranks, errs := gatherSubtree(b, wire.TopicDmesg, sub, flat, func(r dmesgResp) {
		parts = append(parts, r.Records)
	})
	out.Ranks, out.Errors = append(out.Ranks, ranks...), errs
	out.Records = obs.DedupeRecords(obs.MergeRecords(parts...))
	if body.Max > 0 && len(out.Records) > body.Max {
		out.Records = out.Records[len(out.Records)-body.Max:]
	}
	if out.Records == nil {
		out.Records = []obs.Record{}
	}
	return out
}

// gatherAnswer is a subtree gather's answer: it reports the ranks it
// merged and a "rank N: err" line per rank it could not reach.
type gatherAnswer interface {
	coverage() (ranks []int, errs []string)
}

func (r dmesgResp) coverage() ([]int, []string) { return r.Ranks, r.Errors }
func (r traceResp) coverage() ([]int, []string) { return r.Ranks, r.Errors }

// gatherSubtree is the fan-out behind every subtree gather (cmb.dmesg,
// cmb.trace). Each gather-child is asked for its own subtree (sub).
// Every live rank of the child's static subtree that its answer
// neither covers nor names as unreachable is then queried flat: all of
// them when the child cannot run the gather (dead, restarting,
// severed), so one dead interior rank costs its own share only, and
// the ones a child missed because its membership view lags this
// broker's (a joiner it has not heard of yet). add merges each
// answer's payload; the walk returns the ranks merged and the
// unreachable ones.
func gatherSubtree[Q any, R gatherAnswer](b *Broker, topic string, sub, flat Q, add func(R)) (ranks []int, errs []string) {
	h := b.NewHandle()
	defer h.Close()
	for _, child := range b.gatherChildren() {
		rest := b.staticSubtree(child)
		var r R
		if err := queryRank(h, topic, child, sub, dmesgChildTimeout, &r); err == nil {
			add(r)
			got, bad := r.coverage()
			ranks, errs = append(ranks, got...), append(errs, bad...)
			rest = uncovered(rest, got, bad)
		}
		for _, rank := range rest {
			var r R
			if err := queryRank(h, topic, rank, flat, dmesgRankTimeout, &r); err != nil {
				errs = append(errs, fmt.Sprintf("rank %d: %v", rank, err))
				continue
			}
			add(r)
			got, _ := r.coverage()
			ranks = append(ranks, got...)
		}
	}
	return ranks, errs
}

// uncovered returns the ranks of want that neither appear in got nor
// are named by a "rank N: err" line of bad.
func uncovered(want, got []int, bad []string) []int {
	seen := make(map[int]bool, len(got)+len(bad))
	for _, r := range got {
		seen[r] = true
	}
	for _, line := range bad {
		var r int
		if _, err := fmt.Sscanf(line, "rank %d:", &r); err == nil {
			seen[r] = true
		}
	}
	out := want[:0]
	for _, r := range want {
		if !seen[r] {
			out = append(out, r)
		}
	}
	return out
}

// queryRank issues one rank-addressed telemetry RPC and decodes its
// answer into out.
func queryRank(h *Handle, topic string, rank int, body any, timeout time.Duration, out any) error {
	resp, err := h.RPCWithOptions(context.Background(), topic, uint32(rank), body,
		RPCOptions{Timeout: timeout})
	if err != nil {
		return err
	}
	return resp.UnpackJSON(out)
}

// gatherChildren returns the live ranks whose nearest live ancestor is
// this broker — the fan-out set of a tree gather. Skipping departed
// interior ranks means a subtree orphaned by a shrink is adopted by the
// nearest live ancestor instead of silently dropped.
func (b *Broker) gatherChildren() []int {
	me := b.cfg.Rank
	var out []int
	for _, r := range b.LiveRanks() {
		if r == me || r == 0 {
			continue
		}
		a := b.parentOf(r)
		for a > 0 && b.Departed(a) {
			a = b.parentOf(a)
		}
		if a == me {
			out = append(out, r)
		}
	}
	return out
}

// staticSubtree returns the live ranks whose static ancestor chain
// passes through root (root included) — everything a failed gather
// child was responsible for, liveness of the intermediate hops aside.
func (b *Broker) staticSubtree(root int) []int {
	var out []int
	for _, r := range b.LiveRanks() {
		for a := r; a >= root; a = b.parentOf(a) {
			if a == root {
				out = append(out, r)
				break
			}
			if a == 0 {
				break
			}
		}
	}
	return out
}

// parentOf is the static tree-parent arity arithmetic, valid for any
// rank in the grown rank space (topo.Tree.Children bounds at the
// founding size, so gathers compute children from the inverse).
func (b *Broker) parentOf(r int) int {
	if r <= 0 {
		return -1
	}
	return (r - 1) / b.cfg.Arity
}

// maybeForwardLogs runs on each heartbeat at non-root brokers: batch
// the warn+ records not yet forwarded and send them one hop upstream,
// fire-and-forget. The cursor advances optimistically — a batch lost to
// a lossy link stays visible in the local ring (and to dmesg gathers);
// forwarding is the best-effort push that keeps the root's aggregation
// ring warm for post-mortems.
func (b *Broker) maybeForwardLogs() {
	if b.IsRoot() {
		return
	}
	if !b.fwding.CompareAndSwap(false, true) {
		return
	}
	defer b.fwding.Store(false)
	recs := b.log.Ring().Snapshot(obs.LogFilter{
		MaxLevel: obs.LevelWarn,
		SinceSeq: b.lastFwd.Load(),
		Max:      maxFwdBatch,
	})
	if len(recs) == 0 {
		return
	}
	b.lastFwd.Store(recs[len(recs)-1].Seq)
	b.sendLogBatch(logFwdBody{From: b.cfg.Rank, Records: recs})
}

// sendLogBatch submits one cmb.logfwd batch toward the parent. The
// request is fire-and-forget (no match tag): log forwarding must never
// block or hang on an unreachable parent.
func (b *Broker) sendLogBatch(batch logFwdBody) {
	req, err := wire.NewRequest(wire.TopicLogFwd, wire.NodeidUpstream, batch)
	if err != nil {
		return
	}
	b.submit(inbound{msg: req}) // Seq stays 0: no response expected

}

// serveLogFwd folds an upstream batch into the aggregation ring and, at
// interior brokers, relays it another hop toward the root.
func (b *Broker) serveLogFwd(m *wire.Message) {
	var body logFwdBody
	if err := m.UnpackJSON(&body); err != nil {
		b.respondErr(m, ErrnoInval, err.Error())
		return
	}
	b.ctr.logFwdBatches.Inc()
	b.ctr.logForwarded.Add(uint64(len(body.Records)))
	for _, r := range body.Records {
		b.fwd.Append(r)
	}
	if !b.IsRoot() {
		b.sendLogBatch(body)
	}
}

// traceBody is the cmb.trace request payload. Without Gather the
// response covers this broker's span ring only (the pre-gather
// protocol); with it the broker tree-reduces its live subtree so one
// RPC at the root assembles the session-wide view of a trace.
type traceBody struct {
	ID     uint64 `json:"id"`
	Gather bool   `json:"gather,omitempty"`
}

// traceResp is the cmb.trace response payload. Ranks/Errors are only
// populated by gathers.
type traceResp struct {
	Rank   int        `json:"rank"`
	Spans  []obs.Span `json:"spans"`
	Ranks  []int      `json:"ranks,omitempty"`
	Errors []string   `json:"errors,omitempty"`
}

// serveTrace handles cmb.trace. Like serveDmesg, it answers a local
// query on the broker loop and runs a gather as tracked background
// work.
func (b *Broker) serveTrace(m *wire.Message) {
	var body traceBody
	if len(m.Payload) > 0 {
		if err := m.UnpackJSON(&body); err != nil {
			b.respondErr(m, ErrnoInval, err.Error())
			return
		}
	}
	if !body.Gather {
		b.respondBody(m, b.localTrace(body))
		return
	}
	b.bg.Add(1)
	go func() {
		defer b.bg.Done()
		b.respondBody(m, b.gatherTrace(body))
	}()
}

func (b *Broker) localTrace(body traceBody) traceResp {
	spans := b.traces.Snapshot(body.ID)
	if spans == nil {
		spans = []obs.Span{}
	}
	return traceResp{Rank: b.cfg.Rank, Spans: spans, Ranks: []int{b.cfg.Rank}}
}

// gatherTrace tree-reduces the live subtree's span rings for one trace
// id.
func (b *Broker) gatherTrace(body traceBody) traceResp {
	out := b.localTrace(body)
	sub, flat := body, body
	sub.Gather, flat.Gather = true, false
	ranks, errs := gatherSubtree(b, wire.TopicTrace, sub, flat, func(r traceResp) {
		out.Spans = append(out.Spans, r.Spans...)
	})
	out.Ranks, out.Errors = append(out.Ranks, ranks...), errs
	return out
}

// FlightSnapshot captures this broker's flight-recorder state: recent
// log records (local and forwarded, deduped), the span ring, and the
// metrics registry. maxRecords bounds the record count (0 = everything
// buffered).
func (b *Broker) FlightSnapshot(maxRecords int) obs.FlightRank {
	recs := obs.DedupeRecords(obs.MergeRecords(
		b.log.Ring().Snapshot(obs.LogFilter{}),
		b.fwd.Snapshot(obs.LogFilter{}),
	))
	if maxRecords > 0 && len(recs) > maxRecords {
		recs = recs[len(recs)-maxRecords:]
	}
	return obs.FlightRank{
		Rank:    b.cfg.Rank,
		Epoch:   b.Epoch(),
		BootNS:  b.boot,
		Records: recs,
		Spans:   b.traces.Snapshot(0),
		Metrics: b.metrics.Snapshot(),
	}
}

// serveDump answers cmb.dump with this broker's flight snapshot.
func (b *Broker) serveDump(m *wire.Message) {
	var body struct {
		Max int `json:"max,omitempty"`
	}
	if len(m.Payload) > 0 {
		if err := m.UnpackJSON(&body); err != nil {
			b.respondErr(m, ErrnoInval, err.Error())
			return
		}
	}
	b.respondBody(m, b.FlightSnapshot(body.Max))
}
