package session

import (
	"context"
	"strings"
	"testing"
	"time"

	"fluxgo/internal/obs"
	"fluxgo/internal/wire"
)

// collectSpans gathers one trace's spans from every rank of the session.
func collectSpans(s *Session, id uint64) []obs.Span {
	var spans []obs.Span
	for r := 0; r < s.Size(); r++ {
		if b := s.Broker(r); b != nil {
			spans = append(spans, b.Traces().Snapshot(id)...)
		}
	}
	return spans
}

// TestTraceSpansPerHop drives one cmb.pub request from the deepest rank
// of a 3-level tree and asserts the trace records exactly one span per
// hop: the request climbing 6 -> 2 -> 0, the response descending
// 0 -> 2 -> 6, and the resulting event applied at every rank, all
// chained by hop number under one trace id.
func TestTraceSpansPerHop(t *testing.T) {
	const size = 7 // binary tree, 3 levels: 0 | 1 2 | 3 4 5 6
	s, err := New(Options{Size: size, Arity: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	h := s.Handle(6)
	defer h.Close()

	// cmb.pub from a leaf forwards toward the root at every level (only
	// the root sequences events), exercising the full request path.
	resp, err := h.RPC(wire.TopicPub, wire.NodeidAny,
		map[string]any{"topic": "trace.test", "payload": map[string]int{"x": 1}})
	if err != nil {
		t.Fatal(err)
	}
	id := resp.TraceID
	if id == 0 {
		t.Fatal("response carries no trace id")
	}

	// The response has arrived, so the request/response chain is
	// complete; event fan-out to the other ranks is asynchronous.
	var events int
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		events = 0
		for _, sp := range collectSpans(s, id) {
			if sp.Kind == "event" {
				events++
			}
		}
		if events == size {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if events != size {
		t.Fatalf("event applied at %d ranks, want %d", events, size)
	}

	spans := collectSpans(s, id)
	reqHops := map[int]uint8{}  // rank -> hop
	respHops := map[int]uint8{} // rank -> hop
	for _, sp := range spans {
		if sp.Trace != id {
			t.Fatalf("span from wrong trace: %+v", sp)
		}
		switch sp.Kind {
		case "request":
			reqHops[sp.Rank] = sp.Hop
		case "response":
			respHops[sp.Rank] = sp.Hop
		}
	}
	wantReq := map[int]uint8{6: 1, 2: 2, 0: 3}
	wantResp := map[int]uint8{0: 4, 2: 5, 6: 6}
	for rank, hop := range wantReq {
		if reqHops[rank] != hop {
			t.Errorf("request span at rank %d: hop %d, want %d (all: %v)",
				rank, reqHops[rank], hop, reqHops)
		}
	}
	for rank, hop := range wantResp {
		if respHops[rank] != hop {
			t.Errorf("response span at rank %d: hop %d, want %d (all: %v)",
				rank, respHops[rank], hop, respHops)
		}
	}
	if len(reqHops) != 3 || len(respHops) != 3 {
		t.Errorf("request spans at ranks %v and response spans at ranks %v, want exactly {6,2,0} and {0,2,6}",
			reqHops, respHops)
	}

	// The same chain must be reachable over the wire, the way flux trace
	// reads it: cmb.trace at a rank returns that rank's spans only.
	tresp, err := h.RPC(wire.TopicTrace, wire.NodeidAny, map[string]uint64{"id": id})
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Rank  int        `json:"rank"`
		Spans []obs.Span `json:"spans"`
	}
	if err := tresp.UnpackJSON(&body); err != nil {
		t.Fatal(err)
	}
	if body.Rank != 6 || len(body.Spans) != 3 { // request + response + event
		t.Fatalf("cmb.trace at rank 6 returned rank=%d spans=%d, want rank=6 spans=3",
			body.Rank, len(body.Spans))
	}
}

// TestTraceRecordsHostUnreach drops a leaf's parent mid-RPC and asserts
// the synthesized EHOSTUNREACH failure lands in the trace as an
// errno-bearing response span chained to the original request.
func TestTraceRecordsHostUnreach(t *testing.T) {
	const size = 7
	s, err := New(Options{Size: size, Arity: 2, FaultInjection: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ch := s.Chaos()

	h := s.Handle(6)
	defer h.Close()

	// Crash rank 2 (rank 6's parent) silently: requests through it hang
	// inflight. Then sever it: rank 6 sees the link die and must fail
	// its inflight requests with EHOSTUNREACH.
	ch.Crash(2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		// The outcome does not matter (retry may even succeed after
		// re-parenting); the trace must record the failed hop either way.
		_, _ = h.RPCContext(ctx, wire.TopicPub, wire.NodeidAny,
			map[string]any{"topic": "trace.chaos", "payload": map[string]int{}})
	}()
	time.Sleep(100 * time.Millisecond) // let the request land inflight at rank 6
	ch.Sever(2)

	var failed *obs.Span
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && failed == nil {
		for _, sp := range s.Broker(6).Traces().Snapshot(0) {
			if sp.Errnum == wire.ErrnoHostUnreach && sp.Kind == "response" {
				sp := sp
				failed = &sp
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if failed == nil {
		t.Fatal("no EHOSTUNREACH response span recorded at rank 6")
	}
	if failed.Trace == 0 {
		t.Fatalf("failure span has no trace id: %+v", failed)
	}
	// The failure chains onto the original request span at this rank.
	var reqSeen bool
	for _, sp := range s.Broker(6).Traces().Snapshot(failed.Trace) {
		if sp.Kind == "request" && sp.Hop == failed.Parent {
			reqSeen = true
		}
	}
	if !reqSeen {
		t.Fatalf("no request span at hop %d precedes the failure span %+v",
			failed.Parent, failed)
	}
	<-done
}

// TestTraceGatherAfterKill gathers one trace at rank 0 after killing
// an interior rank: the dead rank's gather falls back to flat queries
// of its subtree, so the survivors' spans come back and the dead rank
// is named in Errors.
func TestTraceGatherAfterKill(t *testing.T) {
	const size = 7 // 0 | 1 2 | 3 4 5 6
	s, err := New(Options{Size: size, Arity: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	leaf := s.Handle(6)
	defer leaf.Close()
	resp, err := leaf.RPC(wire.TopicPub, wire.NodeidAny,
		map[string]any{"topic": "trace.kill", "payload": map[string]int{}})
	if err != nil {
		t.Fatal(err)
	}
	id := resp.TraceID
	deadline := time.Now().Add(5 * time.Second)
	for len(collectSpans(s, id)) < 3+3+size { // request, response, events
		if time.Now().After(deadline) {
			t.Fatalf("trace has %d spans, want %d", len(collectSpans(s, id)), 3+3+size)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := s.Kill(2); err != nil {
		t.Fatal(err)
	}

	h := s.Handle(0)
	defer h.Close()
	tresp, err := h.RPC(wire.TopicTrace, 0, map[string]any{"id": id, "gather": true})
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Spans  []obs.Span `json:"spans"`
		Ranks  []int      `json:"ranks"`
		Errors []string   `json:"errors"`
	}
	if err := tresp.UnpackJSON(&body); err != nil {
		t.Fatal(err)
	}
	spanRanks := map[int]bool{}
	for _, sp := range body.Spans {
		spanRanks[sp.Rank] = true
	}
	for _, r := range []int{0, 1, 3, 4, 5, 6} {
		if !spanRanks[r] {
			t.Errorf("no span from survivor rank %d (ranks %v, errors %v)", r, body.Ranks, body.Errors)
		}
	}
	if spanRanks[2] {
		t.Error("killed rank 2 contributed spans")
	}
	if len(body.Errors) != 1 || !strings.HasPrefix(body.Errors[0], "rank 2: ") {
		t.Errorf("errors = %q, want one naming rank 2", body.Errors)
	}
}
