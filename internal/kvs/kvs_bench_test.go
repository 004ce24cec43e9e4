package kvs

import (
	"fmt"
	"testing"

	"fluxgo/internal/cas"
	"fluxgo/internal/wire"
)

// BenchmarkPut measures write-back puts at a leaf slave.
func BenchmarkPut(b *testing.B) {
	for _, size := range []int{8, 2048} {
		b.Run(fmt.Sprintf("vsize=%d", size), func(b *testing.B) {
			s := newKVSSession(b, 7, 2)
			c := client(b, s, 6)
			val := make([]byte, size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Put(fmt.Sprintf("bench.k%d", i), val); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCommit measures single-key commit round trips (put + fence +
// sync) from a leaf through the tree to the master and back. Keys cycle
// through a fixed window so the directory being rewritten stays the
// same size regardless of b.N — without the cap, per-op cost grows with
// the iteration count and runs at different b.N are incomparable.
func BenchmarkCommit(b *testing.B) {
	s := newKVSSession(b, 7, 2)
	c := client(b, s, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(fmt.Sprintf("bc.k%d", i%128), i)
		if _, err := c.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGetCached measures reads served entirely from the local slave
// cache (the common case after the first fault-in).
func BenchmarkGetCached(b *testing.B) {
	s := newKVSSession(b, 7, 2)
	w := client(b, s, 0)
	w.Put("bg.k", "value")
	if _, err := w.Commit(); err != nil {
		b.Fatal(err)
	}
	c := client(b, s, 6)
	var v string
	if err := c.Get("bg.k", &v); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Get("bg.k", &v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyOps measures the master's commit application step.
func BenchmarkApplyOps(b *testing.B) {
	for _, nops := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("ops=%d", nops), func(b *testing.B) {
			store := cas.NewStore(nil)
			ops := make([]Op, nops)
			for i := range ops {
				ref := store.Put(cas.NewValue([]byte(fmt.Sprintf("%d", i))))
				ops[i] = Op{
					Key: fmt.Sprintf("bench.d%d.k%d", i%16, i),
					Ref: ref.String(),
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ApplyOps(store, cas.Ref{}, ops, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFenceBodyCodec measures one tree level's body cost for a
// kap_bulk fence batch — 64 entries, each binding one key to its own
// 32 KiB object — encoded into a request and decoded again, in each of
// the two body encodings.
func BenchmarkFenceBodyCodec(b *testing.B) {
	const nobj, vsize = 64, 32 << 10
	body := fenceBody{Name: "bench", NProcs: nobj, Objects: map[string][]byte{}}
	for i := 0; i < nobj; i++ {
		val := make([]byte, vsize)
		for j := range val {
			val[j] = byte(i + j)
		}
		data := cas.NewValue(val).Encode()
		ref := cas.HashOf(data).String()
		body.Objects[ref] = data
		body.Entries = append(body.Entries, fenceEntry{
			ID:  fmt.Sprintf("bench/p%d", i),
			Ops: []Op{{Key: fmt.Sprintf("kap.k%d", i), Ref: ref}},
		})
	}
	for _, codec := range []struct {
		name string
		req  func() any
	}{
		{"json", func() any { return body }},
		{"binary", func() any { return body.bin() }},
	} {
		b.Run(codec.name, func(b *testing.B) {
			b.SetBytes(nobj * vsize)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				msg, err := wire.NewRequest("kvs.fence", wire.NodeidAny, codec.req())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := decodeFenceBody(msg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
