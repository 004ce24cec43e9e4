package kvs

import (
	"sync"

	"fluxgo/internal/cas"
)

// flightGroup collapses duplicate concurrent fault-ins of the same
// content ref: the first goroutine to ask for a missing ref becomes its
// leader and fetches it upstream; everyone else who asks while the
// fetch is in flight waits on the leader's result instead of issuing a
// redundant upstream round-trip. Refs are content-addressed, so every
// waiter is satisfied by whichever fetch completes — this is pure
// de-duplication, with no staleness hazard.
//
// A leader registers a whole batch at once: every ref it leads shares
// one flight, so a batch costs one allocation and one lock round-trip
// whatever its size, and a waiter reads its own ref's result from the
// flight's per-ref errors.
//
// A hand-rolled implementation (mutex + map + channel) is used because
// the module only needs begin/finish semantics and the repo takes no
// external dependencies.
type flightGroup struct {
	mu sync.Mutex
	m  map[cas.Ref]*flight
}

// flight is one leader's in-progress fetch of a batch of refs. done is
// closed by the leader once every ref it leads is in the local store or
// has failed; errs then holds the failures by ref (nil if none failed).
type flight struct {
	done chan struct{}
	errs map[cas.Ref]error
}

// joined is a ref whose fetch another goroutine leads.
type joined struct {
	ref cas.Ref
	f   *flight
}

// wait blocks until the leader finishes and returns ref's own result: a
// failure of another ref in the same batch is not this ref's.
func (j joined) wait() error {
	<-j.f.done
	return j.f.errs[j.ref]
}

// beginAll registers interest in refs. It returns the refs the caller
// now leads, each once however often it appears in refs, built in place
// over refs' backing array; the flight they share (nil when the caller
// leads none); and the refs already being fetched by another leader,
// each once, to wait on. A caller that leads any ref must fetch them and
// then call finishAll exactly once.
//
// present reports whether a ref is already held. It is asked, under the
// group's lock, about every ref no flight covers: a leader stores its
// objects before finishAll takes them out of the map, so a ref whose
// leader finished after the caller last looked is seen here and neither
// fetched nor counted twice.
func (g *flightGroup) beginAll(refs []cas.Ref, present func(cas.Ref) bool) (f *flight, lead []cas.Ref, waits []joined) {
	lead = refs[:0]
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.m == nil {
		g.m = map[cas.Ref]*flight{}
	}
	for _, ref := range refs {
		other, ok := g.m[ref]
		switch {
		case !ok:
			if present(ref) {
				continue
			}
			if f == nil {
				f = &flight{done: make(chan struct{})}
			}
			g.m[ref] = f
			lead = append(lead, ref)
		case other != f && !hasJoined(waits, ref):
			waits = append(waits, joined{ref: ref, f: other})
		}
	}
	return f, lead, waits
}

// hasJoined reports whether ref is already among waits. A call carries
// at most maxLoadBatch refs (decodeLoadBody and prefetchDir bound them),
// so the scan stays cheaper than a per-call set.
func hasJoined(waits []joined, ref cas.Ref) bool {
	for _, w := range waits {
		if w.ref == ref {
			return true
		}
	}
	return false
}

// finishAll resolves f, the flight of the refs lead returned by
// beginAll, with errs (the failed refs; nil if none) and wakes every
// waiter. Only that leader may call it, exactly once.
func (g *flightGroup) finishAll(f *flight, lead []cas.Ref, errs map[cas.Ref]error) {
	g.mu.Lock()
	for _, ref := range lead {
		delete(g.m, ref)
	}
	g.mu.Unlock()
	f.errs = errs
	close(f.done)
}
