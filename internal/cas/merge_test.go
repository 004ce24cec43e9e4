package cas

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// mergeOracle is DirMerge the decoding way: Decode (nil is the empty
// directory), apply the edits to the map, Encode.
func mergeOracle(t *testing.T, encoded []byte, edits []DirEdit) []byte {
	t.Helper()
	o := NewDir()
	if encoded != nil {
		var err error
		if o, err = Decode(encoded); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range edits {
		if e.Delete {
			delete(o.Dir, e.Name)
		} else {
			o.Dir[e.Name] = e.Ref
		}
	}
	return o.Encode()
}

// randomEdits draws sorted, unique edits over names shared with testDir
// (key%06d) and between them, so every edit lands before, on, between
// or after existing entries.
func randomEdits(r *rand.Rand, span int) []DirEdit {
	picked := map[string]bool{}
	for n := r.Intn(8); n > 0; n-- {
		name := fmt.Sprintf("key%06d", r.Intn(span+2))
		if r.Intn(3) == 0 {
			name += "x" // sorts between two existing names
		}
		picked[name] = true
	}
	names := make([]string, 0, len(picked))
	for n := range picked {
		names = append(names, n)
	}
	sort.Strings(names)
	edits := make([]DirEdit, len(names))
	for i, n := range names {
		edits[i] = DirEdit{Name: n, Delete: r.Intn(3) == 0}
		r.Read(edits[i].Ref[:])
	}
	return edits
}

func TestDirMergeMatchesDecodeEncode(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 2000; iter++ {
		size := r.Intn(12)
		var base []byte
		if size > 0 || r.Intn(2) == 0 {
			base = testDir(size).Encode()
		}
		edits := randomEdits(r, size)
		got, err := DirMerge(nil, base, edits)
		if err != nil {
			t.Fatal(err)
		}
		if want := mergeOracle(t, base, edits); !bytes.Equal(got, want) {
			t.Fatalf("base %d entries, edits %+v:\nDirMerge %x\noracle   %x", size, edits, got, want)
		}
	}
}

func TestDirMergeEdgeCases(t *testing.T) {
	var r1, r2 Ref
	r1[0], r2[0] = 1, 2
	one := &Object{Kind: KindDir, Dir: map[string]Ref{"a": r1}}
	for _, tc := range []struct {
		name  string
		base  []byte
		edits []DirEdit
		want  []byte
	}{
		{"delete last entry", one.Encode(), []DirEdit{{Name: "a", Delete: true}}, []byte{byte(KindDir)}},
		{"delete absent", one.Encode(), []DirEdit{{Name: "b", Delete: true}}, one.Encode()},
		{"replace", one.Encode(), []DirEdit{{Name: "a", Ref: r2}}, (&Object{Kind: KindDir, Dir: map[string]Ref{"a": r2}}).Encode()},
		{"into empty", nil, []DirEdit{{Name: "a", Ref: r1}}, one.Encode()},
		{"no edits", one.Encode(), nil, one.Encode()},
	} {
		got, err := DirMerge(nil, tc.base, tc.edits)
		if err != nil || !bytes.Equal(got, tc.want) {
			t.Errorf("%s: DirMerge = %x, %v; want %x", tc.name, got, err, tc.want)
		}
	}
	if _, err := DirMerge(nil, one.Encode(), []DirEdit{{Name: "b"}, {Name: "a"}}); !errors.Is(err, errEditOrder) {
		t.Errorf("unsorted edits: err %v, want errEditOrder", err)
	}
	if _, err := DirMerge(nil, one.Encode(), []DirEdit{{Name: "a"}, {Name: "a"}}); !errors.Is(err, errEditOrder) {
		t.Errorf("duplicate edits: err %v, want errEditOrder", err)
	}
	if _, err := DirMerge(nil, NewValue([]byte(`1`)).Encode(), nil); !errors.Is(err, ErrNotDir) {
		t.Errorf("value base: err %v, want ErrNotDir", err)
	}
	// The scan stops on a table the merge had to read.
	if _, err := DirMerge(nil, []byte{byte(KindDir), 5, 'a'}, []DirEdit{{Name: "b"}}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupt base: err %v, want ErrCorrupt", err)
	}
}

// TestCanonicalDirAgreesWithDecode holds CanonicalDir to Decode over
// the reader corpus plus out-of-order and duplicate-name tables: it
// fails exactly where Decode fails, returns canonical input unchanged,
// and otherwise returns what Decode then Encode gives.
func TestCanonicalDirAgreesWithDecode(t *testing.T) {
	var r1, r2 Ref
	r1[0], r2[0] = 1, 2
	entry := func(name string, ref Ref) []byte {
		return append(append([]byte{byte(len(name))}, name...), ref[:]...)
	}
	kind := []byte{byte(KindDir)}
	corpus := append(dirCorpus(),
		bytes.Join([][]byte{kind, entry("b", r1), entry("a", r2)}, nil), // out of order
		bytes.Join([][]byte{kind, entry("a", r1), entry("a", r2)}, nil), // duplicate: Decode keeps the last
	)
	for _, data := range corpus {
		obj, derr := Decode(data)
		got, err := CanonicalDir(data)
		switch {
		case derr != nil:
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("%x: Decode failed (%v), CanonicalDir returned %v", data, derr, err)
			}
		case obj.Kind == KindValue:
			if !errors.Is(err, ErrNotDir) {
				t.Errorf("%x: value, CanonicalDir returned %v", data, err)
			}
		case err != nil || !bytes.Equal(got, obj.Encode()):
			t.Errorf("%x: CanonicalDir = %x, %v; want %x", data, got, err, obj.Encode())
		case bytes.Equal(data, obj.Encode()) && &got[0] != &data[0]:
			t.Errorf("%x: canonical input copied", data)
		}
	}
}

// TestDirMergeCopiesRuns pins the point of the merge: one edit to a
// 200-entry directory allocates nothing beyond a reused buffer.
func TestDirMergeCopiesRuns(t *testing.T) {
	base := testDir(200).Encode()
	edits := []DirEdit{{Name: "key000100x"}}
	buf := make([]byte, 0, 2*len(base))
	if n := testing.AllocsPerRun(100, func() {
		out, err := DirMerge(buf[:0], base, edits)
		if err != nil || len(out) != len(base)+1+len(edits[0].Name)+RefLen {
			t.Fatalf("merge: %d bytes, %v", len(out), err)
		}
	}); n != 0 {
		t.Errorf("DirMerge allocates %v times per call, want 0", n)
	}
}
