package fluxgo

import (
	"testing"
	"time"

	"fluxgo/internal/session"
	"fluxgo/internal/testutil"
)

// maxIdleRankGoroutines is what an idle rank of the standard module set
// may hold at one route-dispatch shard: broker loops, link readers and
// writers, and per module its runner and its inbox's pump. A handle
// holds none; a subscription holds one, its mailbox's pump.
const maxIdleRankGoroutines = 23

// TestIdleRankGoroutineBudget counts the goroutines an idle session
// adds per rank. The count is a property of the code, not the machine.
func TestIdleRankGoroutineBudget(t *testing.T) {
	const size = 16
	base := testutil.SettledGoroutines()
	s, err := session.New(session.Options{Size: size, Shards: 1,
		Modules: standardModules(SessionOptions{HBInterval: time.Hour})})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	n := testutil.SettledGoroutines() - base
	t.Logf("%d goroutines, %.2f per rank", n, float64(n)/size)
	if n > maxIdleRankGoroutines*size {
		t.Fatalf("an idle %d-rank session holds %d goroutines (%.2f per rank), budget %d per rank",
			size, n, float64(n)/size, maxIdleRankGoroutines)
	}
}
