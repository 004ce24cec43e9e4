package session

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fluxgo/internal/obs"
	"fluxgo/internal/transport"
	"fluxgo/internal/wire"
)

// dmesgGather asks rank 0 for a session-wide tree-reduced dmesg.
func dmesgGather(t *testing.T, s *Session, maxLevel int) (recs []obs.Record, ranks []int) {
	t.Helper()
	h := s.Handle(0)
	defer h.Close()
	resp, err := h.RPC(wire.TopicDmesg, 0,
		map[string]any{"level": maxLevel, "subtree": true, "fwd": true})
	if err != nil {
		t.Fatalf("dmesg gather: %v", err)
	}
	var body struct {
		Records []obs.Record `json:"records"`
		Ranks   []int        `json:"ranks"`
		Errors  []string     `json:"errors"`
	}
	if err := resp.UnpackJSON(&body); err != nil {
		t.Fatalf("dmesg response: %v", err)
	}
	for _, e := range body.Errors {
		t.Logf("gather error: %s", e)
	}
	return body.Records, body.Ranks
}

// ranksWithMarker maps which ranks contributed a record carrying marker.
func ranksWithMarker(recs []obs.Record, marker string) map[int]bool {
	got := map[int]bool{}
	for _, r := range recs {
		if strings.Contains(r.Msg, marker) {
			got[r.Rank] = true
		}
	}
	return got
}

// TestDmesgGatherAcrossElasticity is the telemetry-plane acceptance
// test: a 15-rank session logs a warn at every rank, survives a grow, a
// shrink, and a kill+restart interleaved with more logging, and a
// single tree-reduced dmesg at rank 0 returns time-ordered, epoch-
// tagged records from every live rank — joiners and the restarted
// incarnation included.
func TestDmesgGatherAcrossElasticity(t *testing.T) {
	s, err := New(Options{Size: 15, Arity: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	logAll := func(marker string) {
		for _, r := range s.LiveRanks() {
			s.Broker(r).Logger().Warnf("test", "%s from rank %d", marker, r)
		}
	}

	logAll("phase1")

	// Grow two ranks, then log everywhere again: the joiners must be
	// reachable by the gather.
	first, err := s.Grow(2)
	if err != nil {
		t.Fatalf("grow: %v", err)
	}
	logAll("phase2")

	// Shrink an interior rank: its static children get adopted by the
	// nearest live ancestor, so the gather must still cover them.
	if err := s.Shrink([]int{2}); err != nil {
		t.Fatalf("shrink: %v", err)
	}

	// Kill and restart a leaf: the new incarnation logs under a fresh
	// boot stamp.
	if err := s.Kill(9); err != nil {
		t.Fatalf("kill: %v", err)
	}
	if err := s.Restart(9); err != nil {
		t.Fatalf("restart: %v", err)
	}
	logAll("phase3")

	recs, ranks := dmesgGather(t, s, obs.LevelWarn)

	live := s.LiveRanks()
	gathered := map[int]bool{}
	for _, r := range ranks {
		gathered[r] = true
	}
	for _, r := range live {
		if !gathered[r] {
			t.Errorf("live rank %d missing from gather's rank set %v", r, ranks)
		}
	}

	phase3 := ranksWithMarker(recs, "phase3")
	for _, r := range live {
		if !phase3[r] {
			t.Errorf("no phase3 record from live rank %d", r)
		}
	}
	if !phase3[first] || !phase3[first+1] {
		t.Errorf("grown ranks %d,%d missing phase3 records", first, first+1)
	}
	if !phase3[9] {
		t.Error("restarted rank 9 missing phase3 record")
	}
	// Departed rank 2 must not report in phase3 (it was gone).
	if phase3[2] {
		t.Error("departed rank 2 has a phase3 record")
	}

	// Records are time-ordered and epoch-tagged.
	for i := 1; i < len(recs); i++ {
		if recs[i].TimeNS < recs[i-1].TimeNS {
			t.Fatalf("records not time-ordered at %d", i)
		}
	}
	seenEpoch := false
	for _, r := range recs {
		if r.Epoch > 0 {
			seenEpoch = true
			break
		}
	}
	if !seenEpoch {
		t.Error("no record carries a nonzero membership epoch")
	}
}

// TestHeartbeatLogForwarding drives the push path: warn records logged
// at non-root ranks climb to the root's aggregation ring on heartbeat
// events, surviving the origin rank's death.
func TestHeartbeatLogForwarding(t *testing.T) {
	s, err := New(Options{Size: 7, Arity: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	for _, r := range s.LiveRanks() {
		if r == 0 {
			continue
		}
		s.Broker(r).Logger().Warnf("test", "fwd-marker from rank %d", r)
		// Info and debug records must NOT be forwarded.
		s.Broker(r).Logger().Infof("test", "info-marker from rank %d", r)
		s.Broker(r).Logger().Debugf("test", "debug-marker from rank %d", r)
	}

	h := s.Handle(0)
	defer h.Close()
	// Each heartbeat moves batches one hop; a 3-level tree needs several
	// pulses for leaf records to reach the root.
	deadline := time.Now().Add(5 * time.Second)
	want := len(s.LiveRanks()) - 1
	for {
		if _, err := h.PublishEvent(wire.EventHeartbeat, map[string]int{"epoch": 1}); err != nil {
			t.Fatalf("publish hb: %v", err)
		}
		fwd := s.Broker(0).Forwarded().Snapshot(obs.LogFilter{})
		got := ranksWithMarker(fwd, "fwd-marker")
		if len(got) == want {
			for _, rec := range fwd {
				if rec.Level > obs.LevelWarn {
					t.Fatalf("record %q leaked into the forwarding plane", rec.Msg)
				}
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("root aggregation ring has markers from %v, want %d ranks", got, want)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Kill a leaf; its already-forwarded warns must remain visible in a
	// root dmesg gather even though the rank is gone.
	if err := s.Kill(6); err != nil {
		t.Fatalf("kill: %v", err)
	}
	recs, _ := dmesgGather(t, s, obs.LevelWarn)
	if got := ranksWithMarker(recs, "fwd-marker from rank 6"); !got[6] {
		t.Error("dead rank 6's forwarded warn lost from root gather")
	}
}

// TestDmesgRPCLevels reads one rank's local ring through a
// rank-addressed cmb.dmesg with a severity cap.
func TestDmesgRPCLevels(t *testing.T) {
	s, err := New(Options{Size: 3, Arity: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	s.Broker(1).Logger().Warnf("test", "warn-only")
	s.Broker(1).Logger().Infof("test", "info-only")

	h := s.Handle(0)
	defer h.Close()
	resp, err := h.RPC(wire.TopicDmesg, 1, map[string]any{"level": obs.LevelWarn})
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Rank    int          `json:"rank"`
		Records []obs.Record `json:"records"`
	}
	if err := resp.UnpackJSON(&body); err != nil {
		t.Fatal(err)
	}
	if body.Rank != 1 {
		t.Fatalf("answered by rank %d, want 1", body.Rank)
	}
	for _, r := range body.Records {
		if r.Level > obs.LevelWarn {
			t.Fatalf("level filter leaked %+v", r)
		}
	}
	if len(ranksWithMarker(body.Records, "warn-only")) != 1 {
		t.Fatal("warn record missing from rank-local dmesg")
	}

	// max keeps the newest records.
	resp, err = h.RPC(wire.TopicDmesg, 1, map[string]any{"max": 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.UnpackJSON(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Records) != 1 || body.Records[0].Msg != "info-only" {
		t.Fatalf("max 1 returned %+v, want the newest record only", body.Records)
	}
}

// TestFlightRecorderChaosDump wires the recorder to a session, crashes
// a rank through the chaos controller, and expects a dump file naming
// the fault, containing records and metrics for every broker.
func TestFlightRecorderChaosDump(t *testing.T) {
	s, err := New(Options{Size: 5, Arity: 2, FaultInjection: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	dir := t.TempDir()
	rec := s.EnableFlightRecorder(dir)

	for _, r := range s.LiveRanks() {
		s.Broker(r).Logger().Warnf("test", "pre-fault %d", r)
	}
	// Debug context never leaves its rank until a dump pulls it.
	s.Broker(4).Logger().Debugf("test", "pre-fault debug context")
	if err := s.Chaos().Crash(3); err != nil {
		t.Fatalf("crash: %v", err)
	}
	rec.Wait()

	written, _ := rec.Dumps()
	if written != 1 {
		t.Fatalf("dumps written = %d, want 1", written)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "flux-dump-*crash-rank3*.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("dump file matching crash-rank3: %v (%v)", matches, err)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"reason": "crash-rank3"`, `"pre-fault 0"`, `"pre-fault debug context"`, `"metrics"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("dump missing %s", want)
		}
	}

	// The cap suppresses further dumps without error.
	for i := 0; i < DefaultMaxDumps+2; i++ {
		if _, err := rec.Dump(fmt.Sprintf("manual-%d", i)); err != nil {
			t.Fatalf("dump %d: %v", i, err)
		}
	}
	written, suppressed := rec.Dumps()
	if written != DefaultMaxDumps || suppressed < 2 {
		t.Fatalf("written=%d suppressed=%d, want cap at %d", written, suppressed, DefaultMaxDumps)
	}
}

// TestDmesgGatherLaggingView gathers right after a grow while the
// joiner's parent has not yet heard of it: everything its own parent
// sends it, the join event and the view it pulls on seeing a newer
// epoch included, is delayed. Its subtree answer omits the joiner, so
// the gather must query the joiner itself rather than drop it
// silently.
func TestDmesgGatherLaggingView(t *testing.T) {
	s, err := New(Options{Size: 7, Arity: 2, FaultInjection: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	s.Chaos().SetLinkFaults(1, 3, transport.Faults{Delay: 300 * time.Millisecond})
	joiner, err := s.Grow(1) // rank 7, child of rank 3
	if err != nil {
		t.Fatal(err)
	}
	if p := s.Tree().Parent(joiner); p != 3 {
		t.Fatalf("joiner %d has parent %d, want 3", joiner, p)
	}
	s.Broker(joiner).Logger().Warnf("test", "joiner-marker")

	recs, ranks := dmesgGather(t, s, obs.LevelWarn)
	found := false
	for _, r := range ranks {
		found = found || r == joiner
	}
	if !found {
		t.Errorf("joiner %d missing from the gather's rank set %v", joiner, ranks)
	}
	if !ranksWithMarker(recs, "joiner-marker")[joiner] {
		t.Error("joiner's record missing from the gather")
	}
}
