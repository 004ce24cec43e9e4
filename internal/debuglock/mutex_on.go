//go:build debuglock

package debuglock

import (
	"fmt"
	"runtime"
	"sync"
)

// Enabled reports whether this is a `-tags debuglock` build.
const Enabled = true

// Mutex is the order-checking variant selected by `-tags debuglock`.
type Mutex struct {
	mu    sync.Mutex
	class string // set once at construction, before the lock is shared
}

// SetClass names the lock's order class. Call it at construction time,
// before the mutex is visible to other goroutines.
func (m *Mutex) SetClass(name string) { m.class = name }

func (m *Mutex) className() string {
	if m.class != "" {
		return m.class
	}
	return fmt.Sprintf("anon@%p", m)
}

// heldLock is one acquisition on a goroutine's lock stack.
type heldLock struct {
	m     *Mutex
	class string
}

// reg is the global acquisition-order registry.
var reg = struct {
	mu sync.Mutex
	// edges[a][b] holds an example stack captured the first time class b
	// was acquired while class a was held.
	edges map[string]map[string]string
	held  map[int64][]heldLock
}{
	edges: map[string]map[string]string{},
	held:  map[int64][]heldLock{},
}

// Lock records the acquisition against every lock currently held by the
// calling goroutine, panicking if it closes a cycle in the global lock
// order (or re-acquires the same instance, which would deadlock
// outright), then locks the underlying mutex.
func (m *Mutex) Lock() {
	class := m.className()
	g := gid()

	reg.mu.Lock()
	for _, h := range reg.held[g] {
		if h.m == m {
			reg.mu.Unlock()
			panic(fmt.Sprintf("debuglock: goroutine %d re-acquires %q already held (self-deadlock)\n%s",
				g, class, stack()))
		}
		if h.class == class {
			// Two instances of one class on a single goroutine: no
			// between-class order to learn, and instance-level order is
			// the caller's business (e.g. sharded clients).
			continue
		}
		m.checkEdgeLocked(g, h.class, class)
	}
	reg.mu.Unlock()

	m.mu.Lock()

	reg.mu.Lock()
	reg.held[g] = append(reg.held[g], heldLock{m: m, class: class})
	reg.mu.Unlock()
}

// checkEdgeLocked records the order from -> to, panicking if the
// reverse direction is already reachable. Caller holds reg.mu.
func (m *Mutex) checkEdgeLocked(g int64, from, to string) {
	if pathExistsLocked(to, from) {
		where := reg.edges[to][from]
		if where == "" {
			where = "(reverse order established transitively)"
		}
		reg.mu.Unlock()
		panic(fmt.Sprintf(
			"debuglock: lock-order cycle: goroutine %d acquires %q while holding %q, "+
				"but %q -> %q was established here:\n%s\ncurrent stack:\n%s",
			g, to, from, to, from, where, stack()))
	}
	em := reg.edges[from]
	if em == nil {
		em = map[string]string{}
		reg.edges[from] = em
	}
	if _, ok := em[to]; !ok {
		em[to] = stack()
	}
}

// pathExistsLocked reports whether to is reachable from from in the
// edge graph. Caller holds reg.mu.
func pathExistsLocked(from, to string) bool {
	if from == to {
		return true
	}
	seen := map[string]bool{from: true}
	queue := []string{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for next := range reg.edges[cur] {
			if next == to {
				return true
			}
			if !seen[next] {
				seen[next] = true
				queue = append(queue, next)
			}
		}
	}
	return false
}

// Unlock removes the most recent acquisition of m from the goroutine's
// lock stack and unlocks the underlying mutex. Locking and unlocking on
// different goroutines (mutex hand-off) is tolerated: the record is
// simply dropped when the stack does not contain m.
func (m *Mutex) Unlock() {
	g := gid()
	reg.mu.Lock()
	stackOf := reg.held[g]
	for i := len(stackOf) - 1; i >= 0; i-- {
		if stackOf[i].m == m {
			stackOf = append(stackOf[:i], stackOf[i+1:]...)
			break
		}
	}
	if len(stackOf) == 0 {
		delete(reg.held, g)
	} else {
		reg.held[g] = stackOf
	}
	reg.mu.Unlock()
	m.mu.Unlock()
}

// stack returns the current goroutine's stack trace.
func stack() string {
	buf := make([]byte, 16<<10)
	n := runtime.Stack(buf, false)
	return string(buf[:n])
}
