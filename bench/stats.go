package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// samples keeps every raw observation and sorts once, when a quantile
// is first asked for. Benchmark timings never go through obs.Histogram:
// its log2 buckets cannot show a change smaller than 2x.
type samples struct {
	mu     sync.Mutex
	v      []float64
	sorted bool
}

func newSamples(capacity int) *samples {
	return &samples{v: make([]float64, 0, capacity)}
}

func (s *samples) add(x float64) {
	s.mu.Lock()
	s.v = append(s.v, x)
	s.sorted = false
	s.mu.Unlock()
}

func (s *samples) addDur(d time.Duration) { s.add(float64(d)) }

func (s *samples) n() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.v)
}

// quantile returns the q-quantile of the exact sorted samples with
// linear interpolation between order statistics; NaN when empty.
func (s *samples) quantile(q float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.v) == 0 {
		return math.NaN()
	}
	if !s.sorted {
		sort.Float64s(s.v)
		s.sorted = true
	}
	pos := q * float64(len(s.v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s.v[lo] + (s.v[hi]-s.v[lo])*(pos-float64(lo))
}

func (s *samples) median() float64 { return s.quantile(0.5) }

// tailLevels are the percentiles a report may quote, highest first.
var tailLevels = []float64{0.999, 0.99, 0.95, 0.9, 0.75}

// tail returns the highest percentile that still has at least ten
// samples beyond it, and its value. With fewer than 40 samples no tail
// is supported and the median is returned with q = 0.5.
func (s *samples) tail() (q, value float64) {
	n := float64(s.n())
	for _, q := range tailLevels {
		if n*(1-q) >= 10 {
			return q, s.quantile(q)
		}
	}
	return 0.5, s.median()
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(v, n=4) does (the exclusive
// method), so a spread computed here equals the one the acceptance
// driver computes from the same runs. It needs at least two values.
func quartiles(v []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	cut := func(i int) float64 {
		const n = 4
		m := len(d) + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := float64(i*m - j*n)
		return (d[j-1]*(n-delta) + d[j]*delta) / n
	}
	return cut(1), cut(2), cut(3)
}

const (
	nsPerUs = 1e3
	nsPerMs = 1e6
)
