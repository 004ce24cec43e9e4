package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval recorded by the benchmark around its own
// call into a layer. Spans of one operation (a KAP round, a sync op, a
// job) share Op; Parent is the ID of the enclosing span, 0 at the top.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

// tracer is the in-memory span recorder of a traced run. A nil tracer
// records nothing, so untraced runs share the workload code. Within a
// traced run every fifth operation stays unrecorded: the two
// interleaved populations give trace.overhead_ratio under identical
// conditions.
type tracer struct {
	origin time.Time
	nextID atomic.Int32

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<18)}
}

// untracedEvery is the stride of operations a traced run leaves
// unrecorded as its own control group.
const untracedEvery = 5

// records reports whether operation op is recorded.
func (t *tracer) records(op int) bool {
	return t != nil && op%untracedEvery != 0
}

// open is a span that has started but not ended.
type open struct {
	id, parent, op int32
	name           string
	start          int64
}

func (t *tracer) begin(name string, parent open, op int) open {
	if !t.records(op) {
		return open{}
	}
	return open{
		id:     t.nextID.Add(1),
		parent: parent.id,
		op:     int32(op),
		name:   name,
		start:  int64(time.Since(t.origin)),
	}
}

// end closes the span and returns its duration (0 when not recorded).
func (t *tracer) end(o open) time.Duration {
	if o.id == 0 {
		return 0
	}
	end := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: o.id, Parent: o.parent, Op: o.op, Name: o.name, Start: o.start, End: end})
	t.mu.Unlock()
	return time.Duration(end - o.start)
}

// nameStats aggregates the spans of one name.
type nameStats struct {
	Count  int     `json:"count"`
	SumMs  float64 `json:"sum_ms"`
	SelfMs float64 `json:"self_ms"` // duration minus the part child spans cover
	P50Us  float64 `json:"p50_us"`
	TailQ  float64 `json:"tail_q"`
	TailUs float64 `json:"tail_us"`
}

// summarize computes per-name totals and self time. A span's self time
// is its duration minus the union of its children's intervals.
func (t *tracer) summarize() (map[string]*nameStats, map[string]*samples) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	stats := make(map[string]*nameStats)
	durs := make(map[string]*samples)
	for _, s := range spans {
		st := stats[s.Name]
		if st == nil {
			st = &nameStats{}
			stats[s.Name] = st
			durs[s.Name] = newSamples(1024)
		}
		dur := s.End - s.Start
		st.Count++
		st.SumMs += float64(dur) / nsPerMs
		st.SelfMs += float64(dur-covered(children[s.ID], s.Start, s.End)) / nsPerMs
		durs[s.Name].add(float64(dur))
	}
	for name, st := range stats {
		st.P50Us = durs[name].median() / nsPerUs
		q, v := durs[name].tail()
		st.TailQ, st.TailUs = q, v/nsPerUs
	}
	return stats, durs
}

// covered returns how much of [lo, hi) the child intervals cover.
func covered(kids []span, lo, hi int64) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curLo, curHi := kids[0].Start, kids[0].End
	for _, k := range kids[1:] {
		if k.Start > curHi {
			total += clip(curLo, curHi, lo, hi)
			curLo, curHi = k.Start, k.End
			continue
		}
		if k.End > curHi {
			curHi = k.End
		}
	}
	return total + clip(curLo, curHi, lo, hi)
}

func clip(a, b, lo, hi int64) int64 {
	if a < lo {
		a = lo
	}
	if b > hi {
		b = hi
	}
	if b <= a {
		return 0
	}
	return b - a
}

// head returns the spans of the first maxOps recorded operations, the
// part of the trace written out in full.
func (t *tracer) head(maxOps int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	seen := make(map[int32]bool)
	var out []span
	for _, s := range t.spans {
		if !seen[s.Op] {
			if len(seen) == maxOps {
				continue
			}
			seen[s.Op] = true
		}
		out = append(out, s)
	}
	return out
}
