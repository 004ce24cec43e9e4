package wexec

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"fluxgo/internal/broker"
	"fluxgo/internal/kvs"
	"fluxgo/internal/session"
)

func newSession(t *testing.T, size int) *session.Session {
	t.Helper()
	s, err := session.New(session.Options{
		Size: size,
		Modules: []session.ModuleFactory{
			kvs.Factory(kvs.ModuleConfig{}),
			Factory(Config{}),
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

func TestBulkEchoAllRanks(t *testing.T) {
	const size = 7
	s := newSession(t, size)
	h := s.Handle(3)
	defer h.Close()

	n, err := Run(h, "job1", "echo", []string{"hello", "flux"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != size {
		t.Fatalf("ntasks = %d, want %d", n, size)
	}
	res, err := Wait(ctx(t), h, "job1")
	if err != nil {
		t.Fatal(err)
	}
	if res.State != "complete" || res.NTasks != size || res.NFailed != 0 {
		t.Fatalf("result %+v", res)
	}
	// Stdout captured in the KVS for every rank.
	for r := 0; r < size; r++ {
		stdout, _, exit, err := Output(h, "job1", r)
		if err != nil {
			t.Fatalf("rank %d output: %v", r, err)
		}
		if exit != 0 || !strings.Contains(stdout, "hello flux") {
			t.Fatalf("rank %d: exit %d stdout %q", r, exit, stdout)
		}
	}
}

func TestSubsetRanks(t *testing.T) {
	s := newSession(t, 7)
	h := s.Handle(0)
	defer h.Close()
	targets := []int{1, 4, 6}
	n, err := Run(h, "subset", "hostname", nil, targets)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(targets) {
		t.Fatalf("ntasks = %d", n)
	}
	res, err := Wait(ctx(t), h, "subset")
	if err != nil {
		t.Fatal(err)
	}
	if res.NTasks != 3 {
		t.Fatalf("result %+v", res)
	}
	for _, r := range targets {
		stdout, _, _, err := Output(h, "subset", r)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("node%d", r)
		if !strings.Contains(stdout, want) {
			t.Fatalf("rank %d stdout %q, want %q", r, stdout, want)
		}
	}
	// Non-target rank has no record.
	if _, _, _, err := Output(h, "subset", 0); err == nil {
		t.Fatal("non-target rank has an exit code")
	}
}

func TestFailurePropagates(t *testing.T) {
	s := newSession(t, 3)
	h := s.Handle(0)
	defer h.Close()
	if _, err := Run(h, "failjob", "fail", []string{"3"}, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	res, err := Wait(ctx(t), h, "failjob")
	if err != nil {
		t.Fatal(err)
	}
	if res.State != "failed" || res.NFailed != 2 {
		t.Fatalf("result %+v", res)
	}
	_, stderr, exit, err := Output(h, "failjob", 1)
	if err != nil {
		t.Fatal(err)
	}
	if exit != 3 || !strings.Contains(stderr, "simulated failure") {
		t.Fatalf("exit %d stderr %q", exit, stderr)
	}
}

func TestUnknownProgramExits127(t *testing.T) {
	s := newSession(t, 1)
	h := s.Handle(0)
	defer h.Close()
	Run(h, "nope", "doesnotexist", nil, nil)
	res, err := Wait(ctx(t), h, "nope")
	if err != nil {
		t.Fatal(err)
	}
	if res.State != "failed" {
		t.Fatalf("result %+v", res)
	}
	_, stderr, exit, _ := Output(h, "nope", 0)
	if exit != 127 || !strings.Contains(stderr, "no such program") {
		t.Fatalf("exit %d stderr %q", exit, stderr)
	}
}

func TestKillBlockedJob(t *testing.T) {
	s := newSession(t, 3)
	h := s.Handle(0)
	defer h.Close()
	if _, err := Run(h, "blocked", "block", nil, nil); err != nil {
		t.Fatal(err)
	}
	// The job cannot finish on its own; kill it.
	time.Sleep(50 * time.Millisecond)
	if err := Kill(h, "blocked"); err != nil {
		t.Fatal(err)
	}
	res, err := Wait(ctx(t), h, "blocked")
	if err != nil {
		t.Fatal(err)
	}
	if res.State != "failed" || res.NTasks != 3 {
		t.Fatalf("result %+v", res)
	}
	_, stderr, exit, _ := Output(h, "blocked", 1)
	if exit != 143 || !strings.Contains(stderr, "terminated by signal") {
		t.Fatalf("exit %d stderr %q", exit, stderr)
	}
}

func TestValidation(t *testing.T) {
	s := newSession(t, 2)
	h := s.Handle(0)
	defer h.Close()
	if _, err := Run(h, "", "echo", nil, nil); err == nil {
		t.Fatal("empty jobid accepted")
	}
	if _, err := Run(h, "j", "", nil, nil); err == nil {
		t.Fatal("empty program accepted")
	}
	if _, err := Run(h, "j", "echo", nil, []int{99}); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
}

func TestCustomProgramRegistry(t *testing.T) {
	progs := BuiltinPrograms()
	progs["rankdouble"] = func(ctx context.Context, rank int, args []string, stdout, stderr *strings.Builder) int {
		fmt.Fprintf(stdout, "%d", rank*2)
		return 0
	}
	s, err := session.New(session.Options{
		Size: 3,
		Modules: []session.ModuleFactory{
			kvs.Factory(kvs.ModuleConfig{}),
			Factory(Config{Programs: progs}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	h := s.Handle(0)
	defer h.Close()
	Run(h, "custom", "rankdouble", nil, []int{2})
	if _, err := Wait(ctx(t), h, "custom"); err != nil {
		t.Fatal(err)
	}
	stdout, _, _, err := Output(h, "custom", 2)
	if err != nil {
		t.Fatal(err)
	}
	if stdout != "4" {
		t.Fatalf("stdout %q, want 4", stdout)
	}
}

// TestConcurrentJobsOneRankOutput runs many one-task jobs at once on
// rank 1, so several tasks there commit their output concurrently. Once
// Wait returns, every task's output must be readable, at the rank of
// the job's task and at the root alike: a task reports done only after
// its own output committed.
func TestConcurrentJobsOneRankOutput(t *testing.T) {
	const workers, jobs = 16, 40
	s := newSession(t, 2)
	errs := make(chan error, workers*jobs)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := s.Handle(w % 2)
			defer h.Close()
			for j := 0; j < jobs; j++ {
				id := fmt.Sprintf("cj-%d-%d", w, j)
				if _, err := Run(h, id, "echo", []string{id}, []int{1}); err != nil {
					errs <- fmt.Errorf("run %s: %w", id, err)
					return
				}
				if _, err := Wait(ctx(t), h, id); err != nil {
					errs <- fmt.Errorf("wait %s: %w", id, err)
					return
				}
				if stdout, _, _, err := Output(h, id, 1); err != nil || stdout != id+"\n" {
					errs <- fmt.Errorf("job %s read at rank %d: stdout %q, %v", id, w%2, stdout, err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	n := 0
	for err := range errs {
		if n < 5 {
			t.Error(err)
		}
		n++
	}
	if n > 0 {
		t.Fatalf("%d of %d task outputs missing or wrong after Wait", n, workers*jobs)
	}
}

// TestSlavesForgetForwardedJobs: a non-root rank keeps no per-job state
// once it has forwarded a job's completion counts, and no cancel func
// once its task has ended, however many jobs it has run.
func TestSlavesForgetForwardedJobs(t *testing.T) {
	const size, jobs = 7, 20
	var mu sync.Mutex
	mods := map[int]*Module{}
	s, err := session.New(session.Options{
		Size: size,
		Modules: []session.ModuleFactory{
			kvs.Factory(kvs.ModuleConfig{}),
			func(rank, size int) broker.Module {
				m := New(Config{})
				mu.Lock()
				mods[rank] = m
				mu.Unlock()
				return m
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	h := s.Handle(0)
	defer h.Close()
	for j := 0; j < jobs; j++ {
		jobid := fmt.Sprintf("forget%d", j)
		if _, err := Run(h, jobid, "echo", nil, nil); err != nil {
			t.Fatal(err)
		}
		if res, err := Wait(ctx(t), h, jobid); err != nil || res.State != "complete" {
			t.Fatalf("%s: %+v, %v", jobid, res, err)
		}
	}
	for r := 1; r < size; r++ {
		resp, err := h.RPC("wexec.stats", uint32(r), nil)
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			Tracked *int `json:"jobs_tracked"`
		}
		if err := resp.UnpackJSON(&st); err != nil || st.Tracked == nil {
			t.Fatalf("rank %d wexec.stats: %v (jobs_tracked missing: %v)", r, err, st.Tracked == nil)
		}
		if *st.Tracked != 0 {
			t.Fatalf("rank %d tracks %d jobs after %d finished, want 0", r, *st.Tracked, jobs)
		}
		mu.Lock()
		m := mods[r]
		mu.Unlock()
		m.mu.Lock()
		cancels := len(m.cancels)
		m.mu.Unlock()
		if cancels != 0 {
			t.Fatalf("rank %d keeps cancel funcs for %d ended jobs", r, cancels)
		}
	}
}
