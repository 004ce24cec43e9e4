package broker

import (
	"strings"
	"testing"
	"time"

	"fluxgo/internal/obs"
	"fluxgo/internal/wire"
)

// waitCounter polls a registry counter until it reaches want (the drop
// paths run on the broker loop after submit returns).
func waitCounter(t *testing.T, b *Broker, name string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if got := b.Metrics().Snapshot().Counters[name]; got >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want >= %d", name,
				b.Metrics().Snapshot().Counters[name], want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDropCounters drives the formerly logf-only silent-drop paths and
// asserts each increments its dedicated counter AND lands a record in
// the log ring: an unknown message type, a response with an empty route
// stack, a response to a vanished link, and an unknown control topic.
func TestDropCounters(t *testing.T) {
	b := newBroker(t)

	b.submit(inbound{msg: &wire.Message{Type: wire.Type(99), Topic: "x"}})
	waitCounter(t, b, wire.MetricDropsUnknownType, 1)

	b.submit(inbound{msg: &wire.Message{Type: wire.Response, Topic: "cmb.ping", Seq: 7}})
	waitCounter(t, b, wire.MetricDropsEmptyRoute, 1)

	b.submit(inbound{msg: &wire.Message{Type: wire.Response, Topic: "cmb.ping", Seq: 7,
		Route: []string{"link-that-never-existed"}}})
	waitCounter(t, b, wire.MetricDropsUnknownLink, 1)

	b.submit(inbound{msg: &wire.Message{Type: wire.Control, Topic: "cmb.bogus_control"}})
	waitCounter(t, b, wire.MetricDropsUnknownControl, 1)

	// Every drop also logged a warn record carrying the cmb subsystem.
	recs := b.Logger().Ring().Snapshot(obs.LogFilter{MaxLevel: obs.LevelWarn})
	var dropLogs int
	for _, r := range recs {
		if r.Sub == wire.ServiceCMB && strings.Contains(r.Msg, "drop") {
			dropLogs++
		}
	}
	if dropLogs < 3 {
		t.Fatalf("want >= 3 warn drop records, got %d: %+v", dropLogs, recs)
	}
}

// TestLoggerEpochStamp asserts records carry the broker's current
// membership epoch.
func TestLoggerEpochStamp(t *testing.T) {
	b := newBroker(t)
	b.Logger().Warnf("test", "stamped")
	recs := b.Logger().Ring().Snapshot(obs.LogFilter{})
	if len(recs) == 0 || recs[len(recs)-1].Epoch != b.Epoch() {
		t.Fatalf("records = %+v, want epoch %d", recs, b.Epoch())
	}
}

// TestLocalDmesgFiltering covers the rank-local serve path without a
// session: append records, query through the cmb service.
func TestLocalDmesgFiltering(t *testing.T) {
	b := newBroker(t)
	h := b.NewHandle()
	defer h.Close()
	b.Logger().Debugf("test", "noise")
	b.Logger().Errorf("test", "signal")
	resp, err := h.RPC(wire.TopicDmesg, wire.NodeidAny, map[string]any{"level": obs.LevelErr})
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Records []obs.Record `json:"records"`
	}
	if err := resp.UnpackJSON(&body); err != nil {
		t.Fatal(err)
	}
	for _, r := range body.Records {
		if r.Level > obs.LevelErr {
			t.Fatalf("filter leaked %+v", r)
		}
	}
	found := false
	for _, r := range body.Records {
		if r.Msg == "signal" {
			found = true
		}
	}
	if !found {
		t.Fatalf("err record missing: %+v", body.Records)
	}
}

// TestFlightSnapshotBounds covers the per-broker dump primitive.
func TestFlightSnapshotBounds(t *testing.T) {
	b := newBroker(t)
	for i := 0; i < 20; i++ {
		b.Logger().Infof("test", "r%d", i)
	}
	fs := b.FlightSnapshot(5)
	if len(fs.Records) != 5 {
		t.Fatalf("bounded snapshot has %d records, want 5", len(fs.Records))
	}
	if fs.Records[len(fs.Records)-1].Msg != "r19" {
		t.Fatalf("snapshot should keep the newest records: %+v", fs.Records)
	}
	if fs.Rank != 0 || fs.BootNS == 0 || fs.Metrics.Counters == nil {
		t.Fatalf("snapshot metadata incomplete: %+v", fs)
	}
}

// TestTelemetryRejectsMalformedBody: every telemetry request answers a
// body that does not decode with EINVAL instead of falling back to
// defaults.
func TestTelemetryRejectsMalformedBody(t *testing.T) {
	b := newBroker(t)
	h := b.NewHandle()
	defer h.Close()
	for _, topic := range []string{wire.TopicDmesg, wire.TopicTrace, wire.TopicDump} {
		_, err := h.RPC(topic, wire.NodeidAny, []int{1})
		if !wire.IsErrnum(err, ErrnoInval) {
			t.Errorf("%s with an array body: err = %v, want errnum %d", topic, err, ErrnoInval)
		}
	}
}
