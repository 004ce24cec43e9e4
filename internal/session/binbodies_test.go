package session

import "testing"

// TestBinaryBodiesJoinNegotiation: the cmb.join handshake decides
// whether a joining broker keeps its binary-body encoding. A parent that
// echoes the capability leaves it on; a parent that does not (an older
// or reconfigured session) downgrades the joiner to JSON.
func TestBinaryBodiesJoinNegotiation(t *testing.T) {
	s, err := New(Options{Size: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if !s.Broker(0).BinaryBodies() {
		t.Fatal("root did not start with binary bodies on")
	}

	// Parent advertises binary bodies: the grown rank keeps them.
	r1, err := s.Grow(1)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Broker(r1).BinaryBodies() {
		t.Fatalf("rank %d downgraded despite binary-capable parent", r1)
	}

	// Parent stops advertising: the next joiner must fall back to JSON
	// even though its own config asked for binary.
	s.Broker(0).SetBinaryBodies(false)
	r2, err := s.Grow(1)
	if err != nil {
		t.Fatal(err)
	}
	parent := s.Tree().Parent(r2)
	if s.Broker(parent).BinaryBodies() {
		t.Skipf("rank %d joined under binary-capable parent %d; downgrade path not exercised", r2, parent)
	}
	if s.Broker(r2).BinaryBodies() {
		t.Fatalf("rank %d kept binary bodies under a JSON-only parent", r2)
	}
}
