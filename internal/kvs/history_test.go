package kvs_test

import (
	"fmt"
	"strconv"
	"testing"

	"fluxgo/internal/cas"
	"fluxgo/internal/kvs"
	"fluxgo/internal/modules/wexec"
)

// jobCommits returns the commits one two-task echo job makes, key for
// key in the shape jobsvc and wexec write them: the submit and run
// records under the job's own id, each task's exit code and output and
// the final state under "job-<id>", then the finish record.
func jobCommits(store *cas.Store, n int) [][]kvs.Op {
	val := func(js string) string { return store.Put(cas.NewValue([]byte(js))).String() }
	id := strconv.Itoa(n)
	rec, exe := wexec.JobDir(id), wexec.JobDir("job-"+id)
	spec, ranks := val(`{"program":"echo","args":["`+id+`"],"nodes":2}`), val(`[1,2]`)
	set := func(key, ref string) kvs.Op { return kvs.Op{Key: key, Ref: ref} }
	return [][]kvs.Op{
		{set(rec+".spec", spec), set(rec+".jobstate", val(`"pending"`))},
		{set(rec+".spec", spec), set(rec+".jobstate", val(`"running"`)), set(rec+".ranks", ranks)},
		{set(exe+".1.exitcode", val(`0`)), set(exe+".1.stdout", val(`"`+id+`\n"`))},
		{set(exe+".2.exitcode", val(`0`)), set(exe+".2.stdout", val(`"`+id+`\n"`))},
		{set(exe+".state", val(`"complete"`)), set(exe+".ntasks", val(`2`)), set(exe+".nfailed", val(`0`))},
		{set(rec+".nfailed", val(`0`)), set(rec+".spec", spec), set(rec+".jobstate", val(`"complete"`)), set(rec+".ranks", ranks)},
	}
}

// history returns a store and root holding jobs 0..jobs-1. The root is
// the one a job-at-a-time run reaches (the tree is a function of its
// contents), so it is built a bucket of jobs per batch.
func history(tb testing.TB, jobs int) (*cas.Store, cas.Ref) {
	store := cas.NewStore(nil)
	var root cas.Ref
	var batch []kvs.Op
	for n := 0; n < jobs; n++ {
		for _, c := range jobCommits(store, n) {
			batch = append(batch, c...)
		}
		if n%100 == 99 || n == jobs-1 {
			var err error
			if root, err = kvs.ApplyOps(store, root, batch, true); err != nil {
				tb.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	return store, root
}

// dirBytesPerJob runs jobs from..from+count-1 one commit at a time
// over root and returns the mean bytes of directory objects a job's
// commits write: what the master hashes, stores, logs and sends to
// every slave that reads the job back.
func dirBytesPerJob(t *testing.T, store *cas.Store, root cas.Ref, from, count int) int {
	written := 0
	store.SetSink(func(_ cas.Ref, encoded []byte) {
		if cas.Kind(encoded[0]) == cas.KindDir {
			written += len(encoded)
		}
	})
	defer store.SetSink(nil)
	for n := from; n < from+count; n++ {
		for _, ops := range jobCommits(store, n) {
			var err error
			if root, err = kvs.ApplyOps(store, root, ops, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	return written / count
}

// TestJobCommitCostHistoryFree is the write path's history
// independence, as bytes rather than time: the jobs of a bucket write
// as many directory bytes with 10 000 more jobs before them. A job's
// cost depends on where its number falls in the JobDir layout — how
// full its bucket and the bucket's parent are, both capped — which
// repeats every 10 000 jobs; only the top directory, one entry per
// 10 000 jobs, grows with history. The buckets opening at job 100 and
// at job 5000 are each compared with the bucket 10 000 jobs later.
func TestJobCommitCostHistoryFree(t *testing.T) {
	for _, n := range []int{100, 5000} {
		var at [2]int
		for i, jobs := range []int{n, n + 10000} {
			store, root := history(t, jobs)
			at[i] = dirBytesPerJob(t, store, root, jobs, 100)
		}
		t.Logf("directory bytes per job, jobs %d-%d: %d; jobs %d-%d: %d", n, n+99, at[0], n+10000, n+10099, at[1])
		if at[1] > at[0]*11/10 {
			t.Errorf("jobs %d-%d write %d directory bytes each, jobs %d-%d %d: more than 10%% apart",
				n+10000, n+10099, at[1], n, n+99, at[0])
		}
	}
}

// BenchmarkApplyOpsHistory prices one job's commits (six ApplyOps
// calls, JobDir keys) over a root already holding 100 or 5000 jobs.
// Every iteration starts from the same root, so b.N adds no history.
func BenchmarkApplyOpsHistory(b *testing.B) {
	for _, jobs := range []int{100, 5000} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			store, base := history(b, jobs)
			commits := jobCommits(store, jobs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				root := base
				for _, ops := range commits {
					var err error
					if root, err = kvs.ApplyOps(store, root, ops, true); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
