package jobsvc

import (
	"context"
	"strings"
	"testing"
	"time"

	"fluxgo/internal/kvs"
	"fluxgo/internal/modules/resrc"
	"fluxgo/internal/modules/wexec"
	"fluxgo/internal/session"
	"fluxgo/internal/transport"
)

func newSession(t *testing.T, size int, cfg Config) *session.Session {
	t.Helper()
	s, err := session.New(session.Options{
		Size: size,
		Modules: []session.ModuleFactory{
			kvs.Factory(kvs.ModuleConfig{}),
			resrc.Factory(resrc.Config{}),
			wexec.Factory(wexec.Config{}),
			Factory(cfg),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func ctx(t *testing.T) context.Context {
	t.Helper()
	c, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return c
}

func TestSubmitRunComplete(t *testing.T) {
	s := newSession(t, 4, Config{})
	h := s.Handle(3) // submissions route upstream to the root service
	defer h.Close()

	id, err := Submit(h, Spec{Program: "echo", Args: []string{"hi"}, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if id != "1" {
		t.Fatalf("first job id %q", id)
	}
	info, err := Wait(ctx(t), h, id)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateComplete || len(info.Ranks) != 2 {
		t.Fatalf("final info %+v", info)
	}
	// Provenance trail in the KVS.
	kc := kvs.NewClient(h)
	var state string
	if err := kc.Get(wexec.JobDir("1")+".jobstate", &state); err != nil || state != StateComplete {
		t.Fatalf("kvs jobstate %q %v", state, err)
	}
	var spec Spec
	if err := kc.Get(wexec.JobDir("1")+".spec", &spec); err != nil || spec.Program != "echo" {
		t.Fatalf("kvs spec %+v %v", spec, err)
	}
	// Task stdout captured under the wexec job id.
	stdout, _, _, err := wexec.Output(h, "job-1", info.Ranks[0])
	if err != nil || !strings.Contains(stdout, "hi") {
		t.Fatalf("stdout %q %v", stdout, err)
	}
	// Resources returned.
	avail, err := resrc.Avail(h)
	if err != nil || len(avail) != 4 {
		t.Fatalf("avail %v %v", avail, err)
	}
}

func TestQueueingFCFSOrder(t *testing.T) {
	s := newSession(t, 2, Config{})
	h := s.Handle(0)
	defer h.Close()

	// Block the machine, then submit two more; they queue in order.
	blocker, err := Submit(h, Spec{Program: "block", Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	id2, _ := Submit(h, Spec{Program: "echo", Args: []string{"second"}, Nodes: 2})
	id3, _ := Submit(h, Spec{Program: "echo", Args: []string{"third"}, Nodes: 1})

	jobs, err := List(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("active jobs %d", len(jobs))
	}
	states := map[string]string{}
	for _, j := range jobs {
		states[j.ID] = j.State
	}
	if states[blocker] != StateRunning || states[id2] != StateSubmitted || states[id3] != StateSubmitted {
		t.Fatalf("states %v", states)
	}

	// Strict FCFS: id3 (1 node) must NOT jump id2 (2 nodes) even though
	// no node is free anyway; after the blocker dies both run in order.
	if err := Cancel(h, blocker); err != nil {
		t.Fatal(err)
	}
	info2, err := Wait(ctx(t), h, id2)
	if err != nil {
		t.Fatal(err)
	}
	info3, err := Wait(ctx(t), h, id3)
	if err != nil {
		t.Fatal(err)
	}
	if info2.State != StateComplete || info3.State != StateComplete {
		t.Fatalf("queued jobs: %+v %+v", info2, info3)
	}
	// The killed blocker is recorded as failed.
	b, err := GetInfo(h, blocker)
	if err != nil || b.State != StateFailed {
		t.Fatalf("blocker %+v %v", b, err)
	}
}

func TestBackfillJumpsBlockedHead(t *testing.T) {
	s := newSession(t, 3, Config{Backfill: true})
	h := s.Handle(0)
	defer h.Close()
	// Occupy 2 of 3 nodes with a blocker; head needs 2 (blocked);
	// a 1-node job behind it backfills.
	blocker, _ := Submit(h, Spec{Program: "block", Nodes: 2})
	head, _ := Submit(h, Spec{Program: "echo", Nodes: 2})
	small, _ := Submit(h, Spec{Program: "echo", Args: []string{"backfilled"}, Nodes: 1})

	info, err := Wait(ctx(t), h, small)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateComplete {
		t.Fatalf("backfilled job %+v", info)
	}
	// Head still waiting.
	hi, _ := GetInfo(h, head)
	if hi.State != StateSubmitted {
		t.Fatalf("head state %s", hi.State)
	}
	Cancel(h, blocker)
	if _, err := Wait(ctx(t), h, head); err != nil {
		t.Fatal(err)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	s := newSession(t, 1, Config{})
	h := s.Handle(0)
	defer h.Close()
	blocker, _ := Submit(h, Spec{Program: "block", Nodes: 1})
	queued, _ := Submit(h, Spec{Program: "echo", Nodes: 1})
	if err := Cancel(h, queued); err != nil {
		t.Fatal(err)
	}
	info, err := GetInfo(h, queued)
	if err != nil || info.State != StateCancelled {
		t.Fatalf("cancelled job %+v %v", info, err)
	}
	if err := Cancel(h, "999"); err == nil {
		t.Fatal("cancel of unknown job accepted")
	}
	Cancel(h, blocker)
}

func TestFailedProgramMarksJobFailed(t *testing.T) {
	s := newSession(t, 2, Config{})
	h := s.Handle(1)
	defer h.Close()
	id, _ := Submit(h, Spec{Program: "fail", Args: []string{"2"}, Nodes: 2})
	info, err := Wait(ctx(t), h, id)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateFailed || info.Exit != 2 {
		t.Fatalf("failed job %+v", info)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newSession(t, 2, Config{})
	h := s.Handle(0)
	defer h.Close()
	if _, err := Submit(h, Spec{Program: "", Nodes: 1}); err == nil {
		t.Fatal("empty program accepted")
	}
	if _, err := Submit(h, Spec{Program: "echo", Nodes: 5}); err == nil {
		t.Fatal("oversized job accepted")
	}
	// Nodes 0 defaults to 1.
	id, err := Submit(h, Spec{Program: "echo"})
	if err != nil {
		t.Fatal(err)
	}
	info, err := Wait(ctx(t), h, id)
	if err != nil || len(info.Ranks) != 1 {
		t.Fatalf("%+v %v", info, err)
	}
}

func TestManySequentialJobs(t *testing.T) {
	s := newSession(t, 2, Config{})
	h := s.Handle(0)
	defer h.Close()
	var ids []string
	for i := 0; i < 10; i++ {
		id, err := Submit(h, Spec{Program: "hostname", Nodes: 2})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		info, err := Wait(ctx(t), h, id)
		if err != nil || info.State != StateComplete {
			t.Fatalf("job %s: %+v %v", id, info, err)
		}
	}
	jobs, _ := List(h)
	if len(jobs) != 0 {
		t.Fatalf("%d jobs still active", len(jobs))
	}
}

func TestStateEventsPublished(t *testing.T) {
	s := newSession(t, 2, Config{})
	h := s.Handle(1)
	defer h.Close()
	sub, err := h.Subscribe("job.state")
	if err != nil {
		t.Fatal(err)
	}
	id, _ := Submit(h, Spec{Program: "echo", Nodes: 1})
	var seen []string
	deadline := time.After(20 * time.Second)
	for len(seen) < 3 {
		select {
		case ev := <-sub.Chan():
			var se stateEvent
			if ev.UnpackJSON(&se) == nil && se.ID == id {
				seen = append(seen, se.State)
			}
		case <-deadline:
			t.Fatalf("state trail so far: %v", seen)
		}
	}
	want := []string{StateSubmitted, StateRunning, StateComplete}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("state trail %v, want %v", seen, want)
		}
	}
}

// TestWaitSyncsLaggingRoot calls Wait for a job that has already
// finished from a rank whose event link is slow, so its KVS root lags
// the root's. Wait must not return before that rank can read the job's
// output.
func TestWaitSyncsLaggingRoot(t *testing.T) {
	s, err := session.New(session.Options{
		Size:           4,
		FaultInjection: true,
		Modules: []session.ModuleFactory{
			kvs.Factory(kvs.ModuleConfig{}),
			resrc.Factory(resrc.Config{}),
			wexec.Factory(wexec.Config{}),
			Factory(Config{}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	const caller = 3
	h0, h := s.Handle(0), s.Handle(caller)
	defer h0.Close()
	defer h.Close()
	// Give the caller's rank a root of its own first: a rank that has
	// none fetches the current one on its first read.
	kc := kvs.NewClient(h)
	if err := kc.Put("warm", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := kc.Commit(); err != nil {
		t.Fatal(err)
	}
	s.Chaos().SetEventLinkFaults(s.Tree().Parent(caller), caller, transport.Faults{Delay: 300 * time.Millisecond})

	id, err := Submit(h, Spec{Program: "echo", Args: []string{"lag"}, Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Watch the job finish from the root, whose KVS is current.
	deadline := time.Now().Add(10 * time.Second)
	for {
		info, err := GetInfo(h0, id)
		if err != nil {
			t.Fatal(err)
		}
		if terminal(info.State) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s", id, info.State)
		}
		time.Sleep(time.Millisecond)
	}
	info, err := Wait(ctx(t), h, id)
	if err != nil {
		t.Fatal(err)
	}
	stdout, _, _, err := wexec.Output(h, "job-"+id, info.Ranks[0])
	if err != nil || stdout != "lag\n" {
		t.Fatalf("output read at rank %d right after Wait: %q, %v", caller, stdout, err)
	}
}
