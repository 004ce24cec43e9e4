package kvs

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"fluxgo/internal/cas"
)

// TestFlightGroupBatch holds the batch flight to its contract: a leader
// leads each new ref once under one shared flight, a ref joined
// mid-flight waits for the leader and then gets its own result (not a
// failure of another ref in the batch), a ref already held is neither
// led nor joined, and finishAll leaves nothing behind.
func TestFlightGroupBatch(t *testing.T) {
	var g flightGroup
	held := map[cas.Ref]bool{}
	present := func(ref cas.Ref) bool { return held[ref] }
	x, y, z, h := cas.HashOf([]byte("x")), cas.HashOf([]byte("y")), cas.HashOf([]byte("z")), cas.HashOf([]byte("h"))
	held[h] = true

	f, lead, waits := g.beginAll([]cas.Ref{x, y, x, h}, present)
	if f == nil || !reflect.DeepEqual(lead, []cas.Ref{x, y}) || len(waits) != 0 {
		t.Fatalf("first caller: flight %v, lead %v, waits %v; want a flight leading [x y]", f, lead, waits)
	}
	f2, lead2, waits2 := g.beginAll([]cas.Ref{y, z, y, x}, present)
	if f2 == nil || f2 == f || !reflect.DeepEqual(lead2, []cas.Ref{z}) ||
		len(waits2) != 2 || waits2[0].ref != y || waits2[1].ref != x || waits2[0].f != f {
		t.Fatalf("second caller: lead %v, waits %+v; want lead [z], waits [y x] on the first flight", lead2, waits2)
	}

	results := make(chan error, len(waits2))
	for _, w := range waits2 {
		go func(w joined) { results <- w.wait() }(w)
	}
	select {
	case err := <-results:
		t.Fatalf("a joined ref resolved before its leader finished: %v", err)
	case <-time.After(20 * time.Millisecond):
	}

	boom := errors.New("x failed")
	g.finishAll(f, lead, map[cas.Ref]error{x: boom})
	got := map[error]int{}
	for range waits2 {
		got[<-results]++
	}
	if got[nil] != 1 || got[boom] != 1 {
		t.Fatalf("waiters on y and x saw %v; want one nil (y) and one %q (x)", got, boom)
	}
	if g.m[z] != f2 || len(g.m) != 1 {
		t.Fatalf("after the first finish the group holds %v; want only z", g.m)
	}
	g.finishAll(f2, lead2, nil)
	if len(g.m) != 0 {
		t.Fatalf("finishAll left %d refs in flight", len(g.m))
	}

	if f3, lead3, waits3 := g.beginAll([]cas.Ref{h, h}, present); f3 != nil || len(lead3) != 0 || len(waits3) != 0 {
		t.Fatalf("held ref: flight %v, lead %v, waits %v; want nothing", f3, lead3, waits3)
	}
}
