package fluxgo_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"fluxgo"
	"fluxgo/internal/modules/wexec"
	"fluxgo/internal/obs"
	"fluxgo/internal/wire"
)

func TestFacadeSessionKVS(t *testing.T) {
	sess, err := fluxgo.NewSession(fluxgo.SessionOptions{Size: 8, HBInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	h := sess.Handle(5)
	defer h.Close()
	kv := fluxgo.NewKVS(h)
	if err := kv.Put("facade.test", "ok"); err != nil {
		t.Fatal(err)
	}
	if _, err := kv.Commit(); err != nil {
		t.Fatal(err)
	}
	var got string
	if err := kv.Get("facade.test", &got); err != nil || got != "ok" {
		t.Fatalf("get: %q %v", got, err)
	}
}

func TestFacadeBarrierAndPMI(t *testing.T) {
	sess, err := fluxgo.NewSession(fluxgo.SessionOptions{Size: 4, HBInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	const procs = 8
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h := sess.Handle(p % 4)
			defer h.Close()
			if err := fluxgo.Barrier(h, "facade-bar", procs); err != nil {
				t.Error(err)
				return
			}
			pm, err := fluxgo.NewPMI(h, "fjob", p, procs)
			if err != nil {
				t.Error(err)
				return
			}
			pm.Put("card", fmt.Sprintf("c%d", p))
			if err := pm.Fence(); err != nil {
				t.Error(err)
				return
			}
			card, err := pm.Get((p+1)%procs, "card")
			if err != nil || card != fmt.Sprintf("c%d", (p+1)%procs) {
				t.Errorf("proc %d neighbour card %q err %v", p, card, err)
			}
		}(p)
	}
	wg.Wait()
}

func TestFacadeInstanceHierarchy(t *testing.T) {
	cluster, err := fluxgo.BuildCluster(fluxgo.ClusterSpec{
		Name: "center", Racks: 1, NodesPerRack: 4, SocketsPerNode: 2, CoresPerSocket: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	root, err := fluxgo.NewRootInstance(cluster, fluxgo.InstanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	child, err := root.Spawn(fluxgo.Request{Nodes: 2}, 0, fluxgo.InstanceOptions{Policy: fluxgo.EASY{}})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := child.Submit("echo", []string{"hi"}, fluxgo.Request{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := rec.Wait(ctx)
	if err != nil || res.State != "complete" {
		t.Fatalf("job %+v err %v", res, err)
	}
}

func TestFacadeBatchJobs(t *testing.T) {
	sess, err := fluxgo.NewSession(fluxgo.SessionOptions{Size: 4, HBInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	h := sess.Handle(2)
	defer h.Close()

	id, err := fluxgo.SubmitJob(h, fluxgo.JobSpec{Program: "hostname", Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	info, err := fluxgo.WaitJob(ctx, h, id)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != "complete" || len(info.Ranks) != 3 {
		t.Fatalf("job %+v", info)
	}
	jobs, err := fluxgo.ListJobs(h)
	if err != nil || len(jobs) != 0 {
		t.Fatalf("active jobs %v, %v", jobs, err)
	}
	// Cancel path.
	blocker, _ := fluxgo.SubmitJob(h, fluxgo.JobSpec{Program: "block", Nodes: 4})
	queued, _ := fluxgo.SubmitJob(h, fluxgo.JobSpec{Program: "echo", Nodes: 1})
	if err := fluxgo.CancelJob(h, queued); err != nil {
		t.Fatal(err)
	}
	if err := fluxgo.CancelJob(h, blocker); err != nil {
		t.Fatal(err)
	}
	if _, err := fluxgo.WaitJob(ctx, h, blocker); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeRunAndLog(t *testing.T) {
	sess, err := fluxgo.NewSession(fluxgo.SessionOptions{Size: 3, HBInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	h := sess.Handle(0)
	defer h.Close()
	leaf := sess.Handle(2)
	defer leaf.Close()
	if err := fluxgo.Log(leaf, "test", fluxgo.LogInfo, "hello %s", "log"); err != nil {
		t.Fatal(err)
	}
	// An info record is not pushed to the root; a rank-0 subtree gather
	// pulls it from rank 2's ring.
	resp, err := h.RPC(wire.TopicDmesg, 0, map[string]any{"subtree": true})
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Records []obs.Record `json:"records"`
	}
	if err := resp.UnpackJSON(&body); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range body.Records {
		if r.Msg == "hello log" {
			found = r.Rank == 2 && r.Sub == "test" && r.Level == obs.LevelInfo
		}
	}
	if !found {
		t.Fatalf("no rank-2 info record from sub test in the gather: %+v", body.Records)
	}
	n, err := fluxgo.Run(h, "fjob2", "hostname", nil, nil)
	if err != nil || n != 3 {
		t.Fatalf("run: n=%d err=%v", n, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := wexec.Wait(ctx, h, "fjob2")
	if err != nil || res.NTasks != 3 {
		t.Fatalf("wait: %+v %v", res, err)
	}
}
