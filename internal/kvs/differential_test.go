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

	"fluxgo/internal/broker"
	"fluxgo/internal/cas"
	extclient "fluxgo/internal/client"
	"fluxgo/internal/session"
	"fluxgo/internal/transport"
	"fluxgo/internal/wire"
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

// traceClient is the part of the kvs client API the trace drives. A
// *Client speaks binary bodies through an in-process handle; an
// *edgeClient speaks JSON over a socket, as cmd/flux does.
type traceClient interface {
	Put(key string, val any) error
	Delete(key string) error
	Commit() (uint64, error)
	Fence(name string, nprocs int) (uint64, error)
	WaitVersion(version uint64) error
	RootRef() (string, uint64, error)
	GetRaw(key string) (json.RawMessage, error)
	GetDir(key string) ([]string, error)
	GetRef(key string) (string, error)
	GetAt(rootRef, key string, out any) error
}

// dialExternal attaches a JSON-only external caller to rank's broker:
// internal/client over a real socket, speaking what cmd/flux speaks.
func dialExternal(t *testing.T, s *session.Session, rank int) *extclient.Client {
	t.Helper()
	key := []byte("edge")
	ln, err := transport.Listen("127.0.0.1:0", key, fmt.Sprintf("rank:%d", rank))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			s.Broker(rank).AttachConn(broker.LinkClient, conn)
		}
		accepted <- err
	}()
	ext, err := extclient.Dial(ln.Addr().String(), key)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ext.Close() })
	if err := <-accepted; err != nil {
		t.Fatal(err)
	}
	return ext
}

// edgeClient is a kvs client built the way cmd/flux builds one: JSON
// requests through internal/client, with the ops of a transaction held
// by the caller until it commits or fences them. Its client-side errors
// read as Client's do.
type edgeClient struct {
	ext     *extclient.Client
	id      string
	seq     int
	pending []Op
}

func (e *edgeClient) Put(key string, val any) error {
	raw, err := json.Marshal(val)
	if err != nil {
		return err
	}
	data := cas.NewValue(raw).Encode()
	ref := cas.HashOf(data).String()
	if _, err := e.ext.RPC("kvs.put", wire.NodeidAny, putBody{Key: key, Ref: ref, Data: data}); err != nil {
		return err
	}
	e.pending = append(e.pending, Op{Key: key, Ref: ref})
	return nil
}

func (e *edgeClient) Delete(key string) error {
	e.pending = append(e.pending, Op{Key: key, Delete: true})
	return nil
}

func (e *edgeClient) Commit() (uint64, error) {
	e.seq++
	return e.fence("kvs.commit", fmt.Sprintf("edge-commit.%s.%d", e.id, e.seq), 1)
}

func (e *edgeClient) Fence(name string, nprocs int) (uint64, error) {
	return e.fence("kvs.fence", name, nprocs)
}

func (e *edgeClient) fence(topic, name string, nprocs int) (uint64, error) {
	ops := e.pending
	e.pending = nil
	resp, err := e.ext.RPC(topic, wire.NodeidAny, fenceBody{
		Name:    name,
		NProcs:  nprocs,
		Entries: []fenceEntry{{ID: name + "/" + e.id, Ops: ops}},
	})
	if err != nil {
		return 0, err
	}
	root, err := edgeJSON[rootBody](resp)
	if err != nil {
		return 0, err
	}
	return root.Version, e.WaitVersion(root.Version)
}

func (e *edgeClient) WaitVersion(version uint64) error {
	_, err := e.ext.RPC("kvs.sync", wire.NodeidAny, syncBody{Version: version})
	return err
}

func (e *edgeClient) RootRef() (string, uint64, error) {
	resp, err := e.ext.RPC("kvs.getversion", wire.NodeidAny, nil)
	if err != nil {
		return "", 0, err
	}
	root, err := edgeJSON[rootBody](resp)
	return root.Root, root.Version, err
}

func (e *edgeClient) get(rootRef, key string) (getRespJSON, error) {
	resp, err := e.ext.RPC("kvs.get", wire.NodeidAny, getBody{Key: key, Root: rootRef})
	if err != nil {
		return getRespJSON{}, err
	}
	return edgeJSON[getRespJSON](resp)
}

func (e *edgeClient) GetRaw(key string) (json.RawMessage, error) {
	body, err := e.get("", key)
	if err == nil && body.Val == nil {
		err = fmt.Errorf("kvs: %q is a directory", key)
	}
	return body.Val, err
}

func (e *edgeClient) GetDir(key string) ([]string, error) {
	body, err := e.get("", key)
	if err == nil && body.Dir == nil {
		err = fmt.Errorf("kvs: %q is not a directory", key)
	}
	return body.Dir, err
}

func (e *edgeClient) GetRef(key string) (string, error) {
	body, err := e.get("", key)
	return body.Ref, err
}

func (e *edgeClient) GetAt(rootRef, key string, out any) error {
	body, err := e.get(rootRef, key)
	if err != nil {
		return err
	}
	if body.Val == nil {
		return fmt.Errorf("kvs: %q is a directory", key)
	}
	return json.Unmarshal(body.Val, out)
}

// edgeJSON decodes a response to an external caller, which must be JSON:
// a broker answers a JSON request in JSON.
func edgeJSON[T any](resp *wire.Message) (T, error) {
	var body T
	if wire.IsBinaryBody(resp.Payload) {
		return body, fmt.Errorf("JSON %s request answered with a binary body", resp.Topic)
	}
	err := resp.UnpackJSON(&body)
	return body, err
}

// runTrace drives the trace for seed through a fresh 7-rank
// codec-linked session, with one client per rank: in-process Clients,
// or with edge, edgeClients each attached to its rank's broker.
func runTrace(t *testing.T, seed int64, edge bool) traceLog {
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
	clients := make([]traceClient, size)
	for r := range clients {
		if edge {
			clients[r] = &edgeClient{ext: dialExternal(t, s, r), id: fmt.Sprintf("edge%d", r)}
		} else {
			clients[r] = client(t, s, r)
		}
	}
	sub, err := client(t, s, 5).Handle().Subscribe("kvs.setroot")
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
		rank := rng.Intn(size)
		c := clients[rank]
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
			what := fmt.Sprintf("step %d rank %d", step, rank)
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
			root, ver, err := decodeSetroot(ev)
			log.Events = append(log.Events, fmt.Sprintf("seq %d %s root %s version %d err %v", ev.Seq, ev.Topic, root, ver, err))
		case <-time.After(10 * time.Second):
			t.Fatalf("rank 5 saw %d of %d setroot events", len(log.Events), version)
		}
	}
	return log
}

// TestDifferentialBodyEncoding holds the client edge to "the encoding is
// unobservable": one seeded trace of put/commit/fence/get/getdir/
// get-at-snapshot ops through in-process Clients (binary bodies) and
// through external JSON callers at the same ranks must yield the same
// root per version, the same read results down to errno and message,
// and the same setroot event sequence.
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
			t.Errorf("seed %d: %s differ from entry %d on (in-process has %d, edge %d)\n in-process %q\n edge       %q",
				seed, cmp.what, i, len(cmp.bin), len(cmp.js), cmp.bin[min(i, len(cmp.bin)):min(i+1, len(cmp.bin))], cmp.js[min(i, len(cmp.js)):min(i+1, len(cmp.js))])
		}
	}
}
