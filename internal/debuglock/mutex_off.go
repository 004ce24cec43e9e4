//go:build !debuglock

package debuglock

import "sync"

// Enabled reports whether this is a `-tags debuglock` build, so callers
// can gate their own debug-only assertions on the same switch.
const Enabled = false

// Mutex is sync.Mutex in release builds; `-tags debuglock` swaps in the
// order-checking variant. The zero value is an unlocked mutex.
type Mutex struct {
	mu sync.Mutex
}

// SetClass names the lock's order class. A no-op in release builds.
func (m *Mutex) SetClass(name string) {}

// Lock locks m.
func (m *Mutex) Lock() { m.mu.Lock() }

// Unlock unlocks m.
func (m *Mutex) Unlock() { m.mu.Unlock() }
