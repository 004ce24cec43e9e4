package barrier

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fluxgo/internal/session"
)

func newSession(t *testing.T, size int) *session.Session {
	t.Helper()
	s, err := session.New(session.Options{
		Size:    size,
		Modules: []session.ModuleFactory{Factory},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestBarrierSingleParticipant(t *testing.T) {
	s := newSession(t, 1)
	h := s.Handle(0)
	defer h.Close()
	if err := Enter(h, "b1", 1); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierAllRanks(t *testing.T) {
	const size = 15
	s := newSession(t, size)
	var wg sync.WaitGroup
	errs := make([]error, size)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			h := s.Handle(r)
			defer h.Close()
			errs[r] = Enter(h, "all", size)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestBarrierActuallyBlocks(t *testing.T) {
	s := newSession(t, 3)
	var released atomic.Int32
	done := make(chan error, 2)
	for _, r := range []int{0, 1} {
		go func(r int) {
			h := s.Handle(r)
			defer h.Close()
			err := Enter(h, "blocktest", 3)
			released.Add(1)
			done <- err
		}(r)
	}
	time.Sleep(100 * time.Millisecond)
	if released.Load() != 0 {
		t.Fatal("barrier released before all participants entered")
	}
	h := s.Handle(2)
	defer h.Close()
	if err := Enter(h, "blocktest", 3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("barrier never released")
		}
	}
}

func TestBarrierMultipleProcsPerRank(t *testing.T) {
	const size, per = 7, 3
	s := newSession(t, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		for p := 0; p < per; p++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				h := s.Handle(r)
				defer h.Close()
				if err := Enter(h, "multi", size*per); err != nil {
					t.Error(err)
				}
			}(r)
		}
	}
	wg.Wait()
}

func TestBarrierSequential(t *testing.T) {
	// Distinct names: barriers are independent.
	s := newSession(t, 3)
	for i := 0; i < 5; i++ {
		var wg sync.WaitGroup
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func(r, i int) {
				defer wg.Done()
				h := s.Handle(r)
				defer h.Close()
				if err := Enter(h, fmt.Sprintf("seq-%d", i), 3); err != nil {
					t.Error(err)
				}
			}(r, i)
		}
		wg.Wait()
	}
}

func TestBarrierNprocsValidation(t *testing.T) {
	s := newSession(t, 1)
	h := s.Handle(0)
	defer h.Close()
	if err := Enter(h, "bad", 0); err == nil {
		t.Fatal("nprocs 0 accepted")
	}
}

func TestBarrierNprocsMismatch(t *testing.T) {
	s := newSession(t, 1)
	h := s.Handle(0)
	defer h.Close()
	go Enter(h, "mismatch", 3)
	time.Sleep(50 * time.Millisecond)
	h2 := s.Handle(0)
	defer h2.Close()
	err := Enter(h2, "mismatch", 4)
	if err == nil {
		t.Fatal("mismatched nprocs accepted")
	}
}

// TestBarrierOverCodecLinks runs the all-ranks barrier over codec links
// with binary-coded (codec v3) enter bodies, including the slave
// aggregates retransmitted upstream.
func TestBarrierOverCodecLinks(t *testing.T) {
	const size = 7
	s, err := session.New(session.Options{
		Size:    size,
		Codec:   true,
		Modules: []session.ModuleFactory{Factory},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	var wg sync.WaitGroup
	errs := make([]error, size)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			h := s.Handle(r)
			defer h.Close()
			errs[r] = Enter(h, "bin", size)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}
