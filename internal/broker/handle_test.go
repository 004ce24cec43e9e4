package broker

import (
	"runtime"
	"testing"
	"time"

	"fluxgo/internal/testutil"
)

// expectGoroutines waits for the goroutine count to reach want.
func expectGoroutines(t *testing.T, after string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() != want {
		if time.Now().After(deadline) {
			t.Fatalf("after %s: %d goroutines, want %d", after, runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHandleGoroutineBudget pins what a handle costs in goroutines: the
// handle itself none, each subscription one (its mailbox pump).
func TestHandleGoroutineBudget(t *testing.T) {
	b := newBroker(t)
	base := testutil.SettledGoroutines()
	h := b.NewHandle()
	expectGoroutines(t, "NewHandle", base)
	s, err := h.Subscribe("budget")
	if err != nil {
		t.Fatal(err)
	}
	expectGoroutines(t, "Subscribe", base+1)
	s.Close()
	expectGoroutines(t, "Subscription.Close", base)
	h.Close()
	expectGoroutines(t, "Handle.Close", base)
}

// TestUndrainedCloseReleasesPumps closes a subscription and a handle
// whose subscription channels nobody reads, with events still queued:
// every mailbox pump must exit anyway.
func TestUndrainedCloseReleasesPumps(t *testing.T) {
	b := newBroker(t)
	base := testutil.SettledGoroutines()
	pub := b.NewHandle()
	h := b.NewHandle()
	s1, err := h.Subscribe("leak")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := h.Subscribe("leak")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := pub.PublishEvent("leak.tick", nil); err != nil {
			t.Fatal(err)
		}
	}
	// Three events each: the pump holds one, parked on the channel send,
	// and two stay queued.
	deadline := time.Now().Add(5 * time.Second)
	for s1.mb.Len() != 2 || s2.mb.Len() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queued %d and %d events, want 2 and 2", s1.mb.Len(), s2.mb.Len())
		}
		time.Sleep(time.Millisecond)
	}
	s1.Close()
	h.Close() // s2 is still open: the handle closes it
	pub.Close()
	expectGoroutines(t, "closing undrained subscriptions", base)
}
