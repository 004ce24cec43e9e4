package obs

import "testing"

// span is a test shorthand: hop/parent chain with explicit timing.
func span(hop, parent uint8, rank int, start, work int64, topic string) Span {
	return Span{Trace: 1, Rank: rank, Hop: hop, Parent: parent,
		Kind: "request", Topic: topic, StartNS: start, WorkNS: work}
}

func TestAssembleTraceLinearChain(t *testing.T) {
	// A request climbing 0 -> 1 -> 2 and handled at rank 2.
	spans := []Span{
		span(2, 1, 2, 30, 5, "kvs.get"),
		span(0, 0, 0, 10, 2, "kvs.get"),
		span(1, 0, 1, 20, 3, "kvs.get"),
	}
	tree := AssembleTrace(spans)
	if tree.Trace != 1 || len(tree.Spans) != 3 {
		t.Fatalf("tree = %+v", tree)
	}
	if len(tree.Roots) != 1 || tree.Roots[0].Span.Hop != 0 {
		t.Fatalf("roots = %+v", tree.Roots)
	}
	n := tree.Roots[0]
	for want := uint8(1); want <= 2; want++ {
		if len(n.Children) != 1 {
			t.Fatalf("hop %d has %d children, want 1", n.Span.Hop, len(n.Children))
		}
		n = n.Children[0]
		if n.Span.Hop != want {
			t.Fatalf("child hop = %d, want %d", n.Span.Hop, want)
		}
	}
	path := tree.CriticalPath()
	if len(path) != 3 || path[0].Span.Hop != 0 || path[2].Span.Hop != 2 {
		t.Fatalf("critical path hops = %+v", path)
	}
	if tree.TotalNS() != 25 { // first start 10 .. last end 35
		t.Fatalf("TotalNS = %d, want 25", tree.TotalNS())
	}
}

func TestAssembleTraceFanOut(t *testing.T) {
	// An event published at hop 0 fanning out to two ranks at hop 1; the
	// slower branch spawns hop 2 and bounds latency.
	spans := []Span{
		span(0, 0, 0, 10, 1, "pub"),
		span(1, 0, 1, 20, 1, "ev"),
		span(1, 0, 2, 21, 1, "ev"),
		span(2, 1, 3, 40, 9, "ev"),
	}
	tree := AssembleTrace(spans)
	if len(tree.Roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(tree.Roots))
	}
	if got := len(tree.Roots[0].Children); got != 2 {
		t.Fatalf("fan-out children = %d, want 2", got)
	}
	path := tree.CriticalPath()
	if len(path) == 0 || path[len(path)-1].Span.Rank != 3 {
		t.Fatalf("critical path should end at rank 3: %+v", path)
	}
	// The hop-2 span must attach under the later-starting hop-1 span that
	// could have caused it (start 21 <= 40).
	last := path[len(path)-1]
	if len(path) < 2 || path[len(path)-2].Span.Rank != 2 {
		t.Fatalf("hop 2 attached to wrong parent; path ends %+v", last.Span)
	}
}

func TestAssembleTraceForeignAndOrphanSpans(t *testing.T) {
	spans := []Span{
		span(1, 0, 4, 50, 1, "orphan"),           // no hop-0 parent gathered
		{Trace: 2, Rank: 0, Hop: 0, StartNS: 60}, // different trace id
	}
	tree := AssembleTrace(spans)
	if len(tree.Spans) != 1 {
		t.Fatalf("foreign trace not filtered: %+v", tree.Spans)
	}
	if len(tree.Roots) != 1 || tree.Roots[0].Span.Topic != "orphan" {
		t.Fatalf("orphan span should root itself: %+v", tree.Roots)
	}
}

func TestAssembleTraceEmpty(t *testing.T) {
	tree := AssembleTrace(nil)
	if len(tree.Roots) != 0 || tree.TotalNS() != 0 || tree.CriticalPath() != nil {
		t.Fatalf("empty tree misbehaved: %+v", tree)
	}
}
