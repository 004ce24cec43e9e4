package main

import (
	"fmt"
	"math/rand"
	"time"
)

// The generators below are the only place the seed enters: the system
// under test sees generated inputs, never the seed or a workload name.

// subRNG derives an independent stream for one purpose (a round, a
// submitter) from the run seed.
func subRNG(seed int64, stream, index int) *rand.Rand {
	const mix = 0x9E3779B97F4A7C15 // golden-ratio odd constant, spreads nearby seeds apart
	s := uint64(seed)*mix + uint64(stream)*0xBF58476D1CE4E5B9 + uint64(index)*0x94D049BB133111EB
	return rand.New(rand.NewSource(int64(s)))
}

// RNG stream identifiers.
const (
	streamKAPValues = iota + 1
	streamKAPReads
	streamJobsSingle
	streamJobsClosed
	streamJobsOpen
	streamArrivals
	streamProbe
)

// jsonValue returns a JSON string literal of n seeded lowercase
// letters: the stored value is exactly n bytes plus the two quotes,
// and needs no escaping on any path.
func jsonValue(rng *rand.Rand, n int) []byte {
	out := make([]byte, n+2)
	rng.Read(out[1 : n+1])
	for i := 1; i <= n; i++ {
		out[i] = 'a' + out[i]%26
	}
	out[0], out[n+1] = '"', '"'
	return out
}

// kapInputs are one KAP round's generated inputs.
type kapInputs struct {
	keys   []string
	values [][]byte // raw JSON, one per object
	reads  [][]int  // per consumer, the object indices it gets
}

func genKAP(seed int64, round int, p kapParams) kapInputs {
	vr := subRNG(seed, streamKAPValues, round)
	rr := subRNG(seed, streamKAPReads, round)
	in := kapInputs{
		keys:   make([]string, p.objects),
		values: make([][]byte, p.objects),
		reads:  make([][]int, p.procs()),
	}
	for i := range in.values {
		in.keys[i] = fmt.Sprintf("kap.dir%d.key%d", i/p.dirFanout, i)
		in.values[i] = jsonValue(vr, p.valueSize)
	}
	for c := range in.reads {
		// Distinct objects per consumer: a seeded start and an odd
		// stride walk the object set without repeating.
		start, stride := rr.Intn(p.objects), 1+2*rr.Intn(p.objects/2)
		in.reads[c] = make([]int, p.gets)
		for k := range in.reads[c] {
			in.reads[c][k] = (start + k*stride) % p.objects
		}
	}
	return in
}

// jobInput is one generated job.
type jobInput struct {
	nodes int
	token string        // echoed argument, checked against the task's stdout
	due   time.Duration // open loop only: offset of its arrival in the segment
}

// genJob draws the next job of a stream, on minNodes..maxNodes nodes.
func genJob(rng *rand.Rand, minNodes, maxNodes int) jobInput {
	return jobInput{
		nodes: minNodes + rng.Intn(maxNodes-minNodes+1),
		token: fmt.Sprintf("tok-%016x", rng.Uint64()),
	}
}

// genArrivals draws Poisson arrivals at rate per second over length,
// every job on the same number of nodes.
func genArrivals(seed int64, rate float64, length time.Duration, nodes int) []jobInput {
	ar := subRNG(seed, streamArrivals, 0)
	jr := subRNG(seed, streamJobsOpen, 0)
	var out []jobInput
	for at := time.Duration(0); ; {
		at += time.Duration(ar.ExpFloat64() / rate * float64(time.Second))
		if at >= length {
			return out
		}
		j := genJob(jr, nodes, nodes)
		j.due = at
		out = append(out, j)
	}
}
