package testutil

import (
	"runtime"
	"time"
)

// SettledGoroutines returns runtime.NumGoroutine once it has held still
// for ten polls 5 ms apart, so that goroutines still exiting from
// earlier work do not skew a baseline or a count.
func SettledGoroutines() int {
	n, same := runtime.NumGoroutine(), 0
	for same < 10 {
		time.Sleep(5 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}
