package kvs

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"fluxgo/internal/session"
)

// traceLog is everything a client of the session can observe of one
// seeded op trace: the root reference of every version, the outcome of
// every read (value bytes, sorted listing, or errno and message), and
// the setroot events as rank 5 received them.
type traceLog struct {
	Roots  []string
	Reads  []string
	Events []string
}

// runTrace drives the trace for seed through a fresh 7-rank
// codec-linked session. With jsonOnly, every broker is switched to JSON
// bodies before any traffic — the peer an older build would be.
func runTrace(t *testing.T, seed int64, jsonOnly bool) traceLog {
	t.Helper()
	const size = 7
	s, err := session.New(session.Options{
		Size:    size,
		Arity:   2,
		Codec:   true,
		Modules: []session.ModuleFactory{Factory(ModuleConfig{})},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for r := 0; r < size; r++ {
		if jsonOnly {
			s.Broker(r).SetBinaryBodies(false)
		} else if !s.Broker(r).BinaryBodies() {
			t.Fatalf("rank %d is not on binary bodies by default", r)
		}
	}
	clients := make([]*Client, size)
	for r := range clients {
		clients[r] = client(t, s, r)
	}
	sub, err := clients[5].Handle().Subscribe("kvs.setroot")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	var log traceLog
	rng := rand.New(rand.NewSource(seed))
	keys := []string{"a", "a.b", "a.b.c", "a.x", "d.e", "d.f.g", "top", "job.1.out", "job.2.out"}
	var version uint64
	var snaps []string

	committed := func(ver uint64, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if ver != version+1 {
			t.Fatalf("commit produced version %d, want %d", ver, version+1)
		}
		version = ver
		root, rver, err := clients[0].RootRef()
		if err != nil || rver != ver {
			t.Fatalf("master root after v%d: v%d, %v", ver, rver, err)
		}
		log.Roots = append(log.Roots, root)
		snaps = append(snaps, root)
	}
	read := func(what string, val any, err error) {
		if err != nil {
			log.Reads = append(log.Reads, fmt.Sprintf("%s -> error %v", what, err))
			return
		}
		log.Reads = append(log.Reads, fmt.Sprintf("%s -> %s", what, val))
	}

	for step := 0; step < 120; step++ {
		c := clients[rng.Intn(size)]
		key := keys[rng.Intn(len(keys))]
		switch op := rng.Intn(10); {
		case op < 3: // put (+ sometimes delete) and commit
			if err := c.Put(key, map[string]any{"step": step, "pad": rng.Int63()}); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(4) == 0 {
				if err := c.Delete(keys[rng.Intn(len(keys))]); err != nil {
					t.Fatal(err)
				}
			}
			committed(c.Commit())
		case op < 4: // three-party fence, one distinct key each
			var wg sync.WaitGroup
			vers := make([]uint64, 3)
			errs := make([]error, 3)
			first := rng.Intn(size)
			for i := range vers {
				fc := clients[(first+i)%size]
				if err := fc.Put(fmt.Sprintf("fence.s%d.p%d", step, i), rng.Int63()); err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					vers[i], errs[i] = fc.Fence(fmt.Sprintf("diff.%d", step), 3)
				}(i)
			}
			wg.Wait()
			for i := range vers {
				if errs[i] != nil || vers[i] != vers[0] {
					t.Fatalf("fence participant %d: v%d, %v (participant 0 got v%d)", i, vers[i], errs[i], vers[0])
				}
			}
			committed(vers[0], nil)
		default: // a read, at the latest version
			if version == 0 {
				continue
			}
			if err := c.WaitVersion(version); err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("step %d rank %d", step, c.Handle().Rank())
			switch rng.Intn(4) {
			case 0:
				dir, err := c.GetDir(key)
				read(what+" getdir "+key, dir, err)
			case 1:
				snap := snaps[rng.Intn(len(snaps))]
				var raw json.RawMessage
				err := c.GetAt(snap, key, &raw)
				read(what+" getat "+snap[:8]+" "+key, raw, err)
			case 2:
				ref, err := c.GetRef(key)
				read(what+" getref "+key, ref, err)
			default:
				raw, err := c.GetRaw(key)
				read(what+" get "+key, raw, err)
			}
		}
	}

	if err := clients[5].WaitVersion(version); err != nil {
		t.Fatal(err)
	}
	for uint64(len(log.Events)) < version {
		select {
		case ev := <-sub.Chan():
			// Compared decoded: the body's bytes are the codec's, which is
			// the one thing allowed to differ.
			root, ver, err := decodeSetroot(ev)
			log.Events = append(log.Events, fmt.Sprintf("seq %d %s root %s version %d err %v", ev.Seq, ev.Topic, root, ver, err))
		case <-time.After(10 * time.Second):
			t.Fatalf("rank 5 saw %d of %d setroot events", len(log.Events), version)
		}
	}
	return log
}

// TestDifferentialBodyEncoding holds the body codec to "unobservable
// except in time": one seeded trace of put/commit/fence/get/getdir/
// get-at-snapshot ops through a default (binary-body) session and
// through one whose every broker speaks JSON must yield the same root
// per version, the same read results down to errno and message, and the
// same event sequence.
func TestDifferentialBodyEncoding(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		bin := runTrace(t, seed, false)
		js := runTrace(t, seed, true)
		if len(bin.Roots) < 20 || len(bin.Reads) < 40 {
			t.Fatalf("seed %d: trace too thin to mean anything: %d versions, %d reads", seed, len(bin.Roots), len(bin.Reads))
		}
		all := strings.Join(bin.Reads, "\n")
		for _, want := range []string{" -> {", " -> [", "(errnum 2)", fmt.Sprintf("(errnum %d)", errNotDir)} {
			if !strings.Contains(all, want) {
				t.Fatalf("seed %d: no read in the trace produced %q (need values, listings, ENOENT and ENOTDIR)", seed, want)
			}
		}
		for _, cmp := range []struct {
			what    string
			bin, js []string
		}{{"root refs", bin.Roots, js.Roots}, {"reads", bin.Reads, js.Reads}, {"events", bin.Events, js.Events}} {
			if reflect.DeepEqual(cmp.bin, cmp.js) {
				continue
			}
			i := 0
			for i < len(cmp.bin) && i < len(cmp.js) && cmp.bin[i] == cmp.js[i] {
				i++
			}
			t.Errorf("seed %d: %s differ from entry %d on (binary has %d, JSON %d)\n binary %q\n json   %q",
				seed, cmp.what, i, len(cmp.bin), len(cmp.js), cmp.bin[min(i, len(cmp.bin)):min(i+1, len(cmp.bin))], cmp.js[min(i, len(cmp.js)):min(i+1, len(cmp.js))])
		}
	}
}
