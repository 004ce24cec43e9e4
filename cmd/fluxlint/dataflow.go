package main

// A generic worklist solver over funcCFG. A pass supplies the lattice
// (bottom, join, equality) and a transfer function; the solver iterates
// in reverse postorder until the facts stop changing and returns the
// fact at each reachable block's entry (forward) or exit (backward).
//
// Join must be monotone for termination; the solver additionally caps
// the number of relaxation steps so a buggy lattice degrades to a
// truncated (conservative for may-analyses) result instead of a hang.

type direction int

const (
	forward direction = iota
	backward
)

// analysis describes one dataflow problem over facts of type F.
type analysis[F any] struct {
	dir      direction
	boundary func() F           // fact entering the graph
	bottom   func() F           // identity element for join
	join     func(dst, src F) F // least upper bound; may mutate dst
	equal    func(a, b F) bool  // fixpoint test
	transfer func(b *block, in F) F
}

// solve runs the analysis to a fixpoint and returns the in-fact of
// every reachable block plus the number of transfer applications (the
// convergence test asserts a bound on it).
func solve[F any](g *funcCFG, a analysis[F]) (map[*block]F, int) {
	start := g.entry
	next := func(b *block) []*block { return b.succs }
	if a.dir == backward {
		start = g.exit
		next = func(b *block) []*block { return b.preds }
	}

	// Reverse postorder from the start node in the chosen direction
	// gives near-optimal visit order for reducible graphs.
	order := postorder(start, next)
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	pos := make(map[*block]int, len(order))
	for i, b := range order {
		pos[b] = i
	}

	in := make(map[*block]F, len(order))
	for _, b := range order {
		in[b] = a.bottom()
	}
	in[start] = a.join(a.bottom(), a.boundary())

	inQueue := make(map[*block]bool, len(order))
	queue := append([]*block(nil), order...)
	for _, b := range queue {
		inQueue[b] = true
	}

	steps := 0
	maxSteps := 64 * (len(order) + 1) * (len(order) + 1)
	for len(queue) > 0 {
		// Pop the queued block earliest in RPO.
		best := 0
		for i := 1; i < len(queue); i++ {
			if pos[queue[i]] < pos[queue[best]] {
				best = i
			}
		}
		b := queue[best]
		queue = append(queue[:best], queue[best+1:]...)
		inQueue[b] = false

		steps++
		if steps > maxSteps {
			break // lattice bug; stop with the facts computed so far
		}
		out := a.transfer(b, in[b])
		for _, s := range next(b) {
			if _, ok := in[s]; !ok {
				continue // unreachable in this direction
			}
			merged := a.join(a.join(a.bottom(), in[s]), out)
			if !a.equal(merged, in[s]) {
				in[s] = merged
				if !inQueue[s] {
					inQueue[s] = true
					queue = append(queue, s)
				}
			}
		}
	}
	return in, steps
}

// postorder returns the depth-first postorder of the graph reachable
// from start via next.
func postorder(start *block, next func(*block) []*block) []*block {
	var order []*block
	seen := map[*block]bool{}
	var visit func(b *block)
	visit = func(b *block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range next(b) {
			visit(s)
		}
		order = append(order, b)
	}
	visit(start)
	return order
}
