package cas

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// testDir returns an n-entry directory with KAP-style names.
func testDir(n int) *Object {
	d := NewDir()
	for i := 0; i < n; i++ {
		var r Ref
		r[0], r[1], r[19] = byte(i), byte(i>>8), 0xEE
		d.Dir[fmt.Sprintf("key%06d", i)] = r
	}
	return d
}

// checkDirReaders holds DirEach and DirLookup to Decode on one input:
// same error, same entries. It is the whole contract of the in-place
// readers, shared by the fuzz target and the table test.
func checkDirReaders(t *testing.T, input []byte) {
	t.Helper()
	// An exact-capacity copy: a re-slice past the end then panics
	// instead of quietly reading the spare capacity.
	data := append(make([]byte, 0, len(input)), input...)
	obj, derr := Decode(data)

	walked := map[string]Ref{}
	entries := 0
	werr := DirEach(data, func(name []byte, ref Ref) bool {
		walked[string(name)] = ref
		entries++
		return true
	})
	switch {
	case derr != nil:
		if !errors.Is(werr, ErrCorrupt) {
			t.Fatalf("Decode rejected the input (%v) but DirEach returned %v", derr, werr)
		}
	case obj.Kind == KindValue:
		if !errors.Is(werr, ErrNotDir) || entries != 0 {
			t.Fatalf("DirEach on a value: err %v, %d entries", werr, entries)
		}
	default:
		if werr != nil {
			t.Fatalf("Decode accepted the directory but DirEach returned %v", werr)
		}
		if len(walked) != len(obj.Dir) {
			t.Fatalf("DirEach saw %d names, Decode %d", len(walked), len(obj.Dir))
		}
		for name, ref := range obj.Dir {
			if walked[name] != ref {
				t.Fatalf("entry %q: DirEach %s, Decode %s", name, walked[name].Short(), ref.Short())
			}
		}
	}

	// A stopped walk must stop.
	calls := 0
	_ = DirEach(data, func([]byte, Ref) bool { calls++; return false })
	if calls > 1 {
		t.Fatalf("DirEach called fn %d times after it returned false", calls)
	}

	// DirLookup's early exit is only specified on canonical tables (what
	// Encode writes); on anything else it must merely not panic and not
	// invent an error kind.
	_, _, lerr := DirLookup(data, "key000001")
	if lerr != nil && !errors.Is(lerr, ErrCorrupt) && !errors.Is(lerr, ErrNotDir) {
		t.Fatalf("DirLookup returned unexpected error %v", lerr)
	}
	if derr != nil || obj.Kind != KindDir || !bytes.Equal(obj.Encode(), data) {
		return
	}
	for name, want := range obj.Dir {
		got, found, err := DirLookup(data, name)
		if err != nil || !found || got != want {
			t.Fatalf("DirLookup(%q) = %s, %v, %v; want %s", name, got.Short(), found, err, want.Short())
		}
		absents := []string{name + "\x00", ""}
		if name != "" {
			absents = append(absents, name[:len(name)-1])
		}
		for _, absent := range absents {
			if _, present := obj.Dir[absent]; present {
				continue
			}
			if _, found, err := DirLookup(data, absent); found || err != nil {
				t.Fatalf("DirLookup(%q) of an absent name = found %v, err %v", absent, found, err)
			}
		}
	}
}

// dirCorpus is the seed set: directories of 0/1/128/2000 entries, a
// value, and truncations and bit flips of each.
func dirCorpus() [][]byte {
	var out [][]byte
	for _, n := range []int{0, 1, 128, 2000} {
		enc := testDir(n).Encode()
		out = append(out, enc)
		for _, cut := range []int{1, 2, 12, len(enc) / 2, len(enc) - 1} {
			if cut > 0 && cut < len(enc) {
				out = append(out, enc[:cut])
			}
		}
		for _, bit := range []int{0, 8, 9, 15, 8 * (len(enc) / 2), 8*len(enc) - 1} {
			if bit/8 < len(enc) {
				flipped := append([]byte(nil), enc...)
				flipped[bit/8] ^= 1 << (bit % 8)
				out = append(out, flipped)
			}
		}
	}
	out = append(out,
		nil,
		NewValue([]byte(`"v"`)).Encode(),
		[]byte{byte(KindDir), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // name length 2^64-1
		append([]byte{byte(KindDir), 0xf0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, make([]byte, 32)...),
	)
	return out
}

func TestDirReadersAgreeWithDecode(t *testing.T) {
	for _, data := range dirCorpus() {
		checkDirReaders(t, data)
	}
}

func FuzzDirLookup(f *testing.F) {
	for _, data := range dirCorpus() {
		f.Add(data)
	}
	f.Fuzz(checkDirReaders)
}

// TestDirReadersAllocFree pins the point of the in-place readers: a
// lookup or a full walk of a 128-entry directory allocates nothing.
func TestDirReadersAllocFree(t *testing.T) {
	enc := testDir(128).Encode()
	name := "key000100"
	if n := testing.AllocsPerRun(100, func() {
		if _, found, err := DirLookup(enc, name); !found || err != nil {
			t.Fatal("lookup failed")
		}
	}); n != 0 {
		t.Errorf("DirLookup allocates %v times per call, want 0", n)
	}
	var sum int
	if n := testing.AllocsPerRun(100, func() {
		if err := DirEach(enc, func(name []byte, ref Ref) bool {
			sum += len(name) + int(ref[0])
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DirEach allocates %v times per walk, want 0", n)
	}
}

func TestPutHashed(t *testing.T) {
	s := NewStore(nil)
	enc := NewValue([]byte(`1`)).Encode()
	ref := HashOf(enc)
	sunk := 0
	s.SetSink(func(r Ref, data []byte) {
		if r != ref || !bytes.Equal(data, enc) {
			t.Errorf("sink got %s", r.Short())
		}
		sunk++
	})
	s.PutHashed(ref, enc)
	s.PutHashed(ref, enc)
	if got := s.PutRaw(enc); got != ref {
		t.Fatalf("PutRaw after PutHashed = %s, want %s", got.Short(), ref.Short())
	}
	if data, ok := s.GetRaw(ref); !ok || !bytes.Equal(data, enc) {
		t.Fatal("PutHashed object not readable")
	}
	if s.Len() != 1 || sunk != 1 {
		t.Fatalf("store holds %d objects, sink ran %d times; want 1 and 1", s.Len(), sunk)
	}
}

var (
	sinkRef Ref
	sinkObj *Object
)

// BenchmarkDirLookup128 and BenchmarkDecodeDir128 price one path
// component of a kvs.get on a KAP-sized directory, the in-place way and
// the way it was done before (decode, then index the map).
func BenchmarkDirLookup128(b *testing.B) {
	enc := testDir(128).Encode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref, found, err := DirLookup(enc, "key000064")
		if !found || err != nil {
			b.Fatal("lookup failed")
		}
		sinkRef = ref
	}
}

func BenchmarkDecodeDir128(b *testing.B) {
	enc := testDir(128).Encode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obj, err := Decode(enc)
		if err != nil {
			b.Fatal(err)
		}
		sinkObj = obj
		sinkRef = obj.Dir["key000064"]
	}
}
