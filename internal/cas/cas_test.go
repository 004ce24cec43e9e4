package cas

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"fluxgo/internal/clock"
)

func TestRefString(t *testing.T) {
	var r Ref
	r[0] = 0x1c
	r[1] = 0x00
	r[2] = 0x2d
	r[3] = 0xde
	if got := r.Short(); got != "1c002dde" {
		t.Fatalf("Short = %q, want 1c002dde", got)
	}
	parsed, err := ParseRef(r.String())
	if err != nil {
		t.Fatal(err)
	}
	if parsed != r {
		t.Fatal("ParseRef(String()) round trip failed")
	}
}

func TestParseRefErrors(t *testing.T) {
	if _, err := ParseRef("zz"); err == nil {
		t.Error("invalid hex accepted")
	}
	if _, err := ParseRef("abcd"); err == nil {
		t.Error("short ref accepted")
	}
}

func TestValueEncodeDecode(t *testing.T) {
	v := NewValue([]byte(`42`))
	enc := v.Encode()
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindValue || !bytes.Equal(got.Value, []byte(`42`)) {
		t.Fatalf("decoded %+v", got)
	}
}

func TestDirEncodeDeterministic(t *testing.T) {
	d1 := NewDir()
	d2 := NewDir()
	var ra, rb Ref
	ra[0], rb[0] = 1, 2
	// Insert in different orders.
	d1.Dir["a"] = ra
	d1.Dir["b"] = rb
	d2.Dir["b"] = rb
	d2.Dir["a"] = ra
	if HashOf(d1.Encode()) != HashOf(d2.Encode()) {
		t.Fatal("directory hash depends on insertion order")
	}
}

func TestDirEncodeDecode(t *testing.T) {
	d := NewDir()
	var r1, r2 Ref
	r1[5], r2[7] = 9, 3
	d.Dir["alpha"] = r1
	d.Dir["beta.gamma"] = r2
	got, err := Decode(d.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindDir || len(got.Dir) != 2 || got.Dir["alpha"] != r1 || got.Dir["beta.gamma"] != r2 {
		t.Fatalf("decoded %+v", got)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{'x'},
		{byte(KindDir), 0xFF}, // bad uvarint/truncated
		append([]byte{byte(KindDir), 3}, 'a', 'b'), // name truncated
	}
	for i, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("case %d: corrupt encoding accepted", i)
		}
	}
}

func TestObjectCopyIsDeep(t *testing.T) {
	d := NewDir()
	var r Ref
	d.Dir["k"] = r
	c := d.Copy()
	var r2 Ref
	r2[0] = 1
	c.Dir["k"] = r2
	c.Dir["new"] = r2
	if d.Dir["k"] != r || len(d.Dir) != 1 {
		t.Fatal("Copy aliases directory map")
	}
	v := NewValue([]byte("abc"))
	cv := v.Copy()
	cv.Value[0] = 'X'
	if v.Value[0] != 'a' {
		t.Fatal("Copy aliases value bytes")
	}
}

func TestEncodePanicsOnUnknownKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	(&Object{Kind: 'z'}).Encode()
}

func TestStorePutGet(t *testing.T) {
	s := NewStore(nil)
	v := NewValue([]byte(`"hello"`))
	ref := s.Put(v)
	got, ok := s.GetRaw(ref)
	if !ok || !bytes.Equal(got, v.Encode()) {
		t.Fatalf("GetRaw = %q, %v", got, ok)
	}
	if !s.Has(ref) {
		t.Fatal("Has = false for stored object")
	}
	var missing Ref
	missing[0] = 0xFF
	if _, ok := s.GetRaw(missing); ok {
		t.Fatal("GetRaw of missing ref succeeded")
	}
	hits, misses := s.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits %d misses, want 1,1", hits, misses)
	}
}

func TestStoreDeduplicates(t *testing.T) {
	s := NewStore(nil)
	r1 := s.Put(NewValue([]byte(`1`)))
	r2 := s.Put(NewValue([]byte(`1`)))
	if r1 != r2 {
		t.Fatal("identical content yielded different refs")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestStoreExpire(t *testing.T) {
	mc := clock.NewManual(time.Unix(0, 0))
	s := NewStore(mc)
	old := s.Put(NewValue([]byte(`"old"`)))
	pinned := s.Put(NewValue([]byte(`"pinned"`)))
	s.Pin(pinned)
	mc.Advance(10 * time.Second)
	fresh := s.Put(NewValue([]byte(`"fresh"`)))
	removed := s.Expire(5 * time.Second)
	if removed != 1 {
		t.Fatalf("Expire removed %d, want 1", removed)
	}
	if s.Has(old) {
		t.Fatal("old unpinned entry survived expiry")
	}
	if !s.Has(pinned) || !s.Has(fresh) {
		t.Fatal("pinned or fresh entry expired")
	}
}

func TestStoreGetRefreshesLastUsed(t *testing.T) {
	mc := clock.NewManual(time.Unix(0, 0))
	s := NewStore(mc)
	ref := s.Put(NewValue([]byte(`"x"`)))
	mc.Advance(4 * time.Second)
	s.GetRaw(ref) // refresh
	mc.Advance(4 * time.Second)
	if n := s.Expire(5 * time.Second); n != 0 {
		t.Fatalf("recently used entry expired (removed %d)", n)
	}
}

// Property: encode/decode round-trips arbitrary values and directories,
// and the ref is stable across a store round trip.
func TestEncodeDecodeQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(val []byte, names []string) bool {
		v := NewValue(val)
		dv, err := Decode(v.Encode())
		if err != nil || !bytes.Equal(dv.Value, val) {
			return false
		}
		d := NewDir()
		for _, n := range names {
			var r Ref
			rng.Read(r[:])
			d.Dir[n] = r
		}
		dd, err := Decode(d.Encode())
		if err != nil || len(dd.Dir) != len(d.Dir) {
			return false
		}
		for n, r := range d.Dir {
			if dd.Dir[n] != r {
				return false
			}
		}
		return HashOf(d.Encode()) == HashOf(dd.Encode())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s := NewStore(nil)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				ref := s.Put(NewValue([]byte{byte(g), byte(i)}))
				if _, ok := s.GetRaw(ref); !ok {
					t.Error("lost object")
					return
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}
