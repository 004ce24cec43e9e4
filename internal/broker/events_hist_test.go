package broker

import (
	"testing"

	"fluxgo/internal/transport"
	"fluxgo/internal/wire"
)

// TestEventHistoryWindow drives the resync history three times round:
// exactly the last EventHistory events stay, in sequence order, a
// resync replays them in that order, and every evicted frame has been
// released exactly once (a second Release panics on underflow; a
// missed one leaves the frame's buffer in place).
func TestEventHistoryWindow(t *testing.T) {
	const hist = 16
	b, err := New(Config{Rank: 0, Size: 1, EventHistory: hist})
	if err != nil {
		t.Fatal(err)
	}
	frames := make([]*wire.Frame, 3*hist)
	for i := range frames {
		ev := &wire.Message{Type: wire.Event, Topic: "hist.ev", Seq: uint64(i + 1)}
		if frames[i], err = wire.NewFrame(ev); err != nil {
			t.Fatal(err)
		}
		b.mu.Lock()
		evicted := b.recordEvent(ev, frames[i])
		b.mu.Unlock()
		if evicted != nil {
			evicted.Release()
		}
	}
	for i, f := range frames {
		if kept := i >= 2*hist; kept != (f.Bytes() != nil) {
			t.Fatalf("event %d: frame held %v, want %v", i+1, f.Bytes() != nil, kept)
		}
	}
	b.mu.Lock()
	if len(b.eventHist) != hist {
		t.Fatalf("history holds %d events, want %d", len(b.eventHist), hist)
	}
	for i, rec := range b.eventHist {
		if want := uint64(2*hist + i + 1); rec.msg.Seq != want || rec.frame != frames[want-1] {
			t.Fatalf("history[%d] = event %d, want %d", i, rec.msg.Seq, want)
		}
	}
	b.mu.Unlock()

	parentEnd, childEnd := transport.CodecPipe("rank:0", "rank:1")
	defer childEnd.Close()
	got := make(chan uint64, hist)
	go func() {
		for i := 0; i < hist; i++ {
			m, err := childEnd.Recv()
			if err != nil {
				close(got)
				return
			}
			got <- m.Seq
		}
	}()
	b.replayEvents(&link{kind: LinkChildEvent, id: "test", conn: parentEnd, gated: true}, 0)
	for i := 0; i < hist; i++ {
		if seq, want := <-got, uint64(2*hist+i+1); seq != want {
			t.Fatalf("replay %d: event %d, want %d", i, seq, want)
		}
	}
	for _, f := range frames[2*hist:] {
		if f.Bytes() == nil {
			t.Fatal("replay released a frame the history still holds")
		}
		f.Release()
	}
}

// TestEventHistoryNoPerEventCopy pins the sliding window: at full
// history, recording an event allocates nothing but the occasional
// array growth that append amortises, where copying the history on
// every event allocated once per event.
func TestEventHistoryNoPerEventCopy(t *testing.T) {
	const hist = 1024
	b, err := New(Config{Rank: 0, Size: 1, EventHistory: hist})
	if err != nil {
		t.Fatal(err)
	}
	ev := &wire.Message{Type: wire.Event, Topic: "hist.ev"}
	for i := 0; i < hist; i++ {
		b.recordEvent(ev, nil)
	}
	if n := testing.AllocsPerRun(4*hist, func() { b.recordEvent(ev, nil) }); n != 0 {
		t.Errorf("recording an event at full history allocates %v times, want 0 amortised", n)
	}
	if len(b.eventHist) != hist {
		t.Fatalf("history holds %d events, want %d", len(b.eventHist), hist)
	}
}
