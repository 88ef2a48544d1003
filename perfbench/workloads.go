package main

import (
	"encoding/json"
	"fmt"
	"math"

	"nodeselect/internal/core"
	"nodeselect/internal/lease"
	"nodeselect/internal/randx"
	"nodeselect/internal/remos"
	"nodeselect/internal/selectsvc"
	"nodeselect/internal/testbed"
	"nodeselect/internal/topology"
)

// opKind is the HTTP call one operation of a workload stream makes.
type opKind int

const (
	opSelect  opKind = iota // plain POST /select
	opLeased                // POST /select with a demand and a TTL
	opRelease               // DELETE /leases/{oldest active lease}
)

func (k opKind) String() string {
	return [...]string{"select", "leased", "release"}[k]
}

// op is one pre-encoded operation of a workload's request stream. Release
// operations carry no body: they name the oldest lease the client holds,
// which it learns from the leased selects' answers.
type op struct {
	kind opKind
	req  selectsvc.SelectRequest
	body []byte
}

// workload is everything a run derives from the workload name, the seed and
// the size: the topology, the measurement conditions painted onto the
// source, and the request stream. The service itself always runs with the
// default selectsvc.Config; only lease-churn hands it a WAL-backed ledger.
type workload struct {
	name string
	// graph builds the topology; paint draws the k-th set of loads and used
	// bandwidths onto the measurement source. Both are deterministic in the
	// seed.
	graph func() *topology.Graph
	paint func(g *topology.Graph, src *remos.StaticSource, k int)
	// wal gives the service's ledger a write-ahead log.
	wal bool
	// warm is the number of stream operations replayed during set-up.
	warm int
	// setups is how many times a run sets up; setup_s is their median.
	setups int
	// digestOps is the number of timed operations, after the warm-up, that
	// the answer digest and minresource_mean cover. A run that completes
	// fewer counts the shortfall as failed operations.
	digestOps int
	// epochOps, when positive, starts a new measurement epoch every
	// epochOps stream operations (warm-up included), before operation
	// epochEnd when that is set: the source is repainted with the next
	// draw and polled twice, with the clock paused. A run then averages
	// over many draws instead of resting on one.
	epochOps, epochEnd int
	// checks is how many answered plain selects each epoch's correctness
	// check recomputes with core.SelectOpt (every distinct shape when 0).
	checks int
	// ops are the encoded operations. When seq is set, the stream is
	// ops[seq[0]], ops[seq[1]], ... repeated; otherwise it is ops in order,
	// once: the miss-driven workloads must never repeat a shape, so their
	// streams are long enough for the longest run allowed.
	ops []op
	seq []int32
}

// next returns operation i of the stream.
func (w *workload) next(i int) (*op, error) {
	switch {
	case w.seq != nil:
		return &w.ops[w.seq[i%len(w.seq)]], nil
	case i >= len(w.ops):
		return nil, fmt.Errorf("%s: request stream exhausted after %d operations", w.name, i)
	}
	return &w.ops[i], nil
}

// size scales the workloads: the benchmark runs them full size, its own
// tests small.
type size struct{ small bool }

var (
	fullSize  = size{}
	smallSize = size{small: true}
)

// pick returns the full-size or the small value.
func (sz size) pick(full, small int) int {
	if sz.small {
		return small
	}
	return full
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"select-hot", "select-sweep", "lease-churn", "fabric-10k"}

// linkMix is the paper's testbed link mix: 100 Mbps Ethernet and 155 Mbps ATM.
var linkMix = []float64{testbed.Ethernet100, testbed.ATM155}

// topologySeed fixes the random trees: the seed draws the measurement
// conditions and the request stream, not the topology, so runs with
// different seeds do the same kind of work on the same network.
const topologySeed = 1999

// newWorkload derives a workload from its name, the seed and the size.
func newWorkload(name string, seed int64, sz size) (*workload, error) {
	rng := randx.New(seed).Split(name)
	topo := randx.New(topologySeed).Split(name)
	cond, reqs := rng.Split("conditions"), rng.Split("requests")
	tree := func(n int) func() *topology.Graph {
		return func() *topology.Graph { return testbed.RandomTree(topo.Split("tree"), n, linkMix) }
	}
	w := &workload{name: name, setups: sz.pick(5, 2), digestOps: sz.pick(1000, 50)}
	var err error
	switch name {
	case "select-hot":
		w.graph = tree(sz.pick(200, 40))
		w.paint = func(g *topology.Graph, src *remos.StaticSource, k int) { paintTree(g, src, cond.SplitN(k), 8) }
		w.warm = sz.pick(12000, 100)
		// Epochs during the warm-up only: the timed phase must hit the
		// cache on every request.
		w.epochOps, w.epochEnd = sz.pick(1000, 25), w.warm
		w.ops, w.seq, err = hotStream(reqs, 1<<16)
	case "select-sweep":
		n := sz.pick(400, 60)
		w.graph = tree(n)
		w.paint = func(g *topology.Graph, src *remos.StaticSource, k int) { paintTree(g, src, cond.SplitN(k), 0) }
		w.warm = sz.pick(40, 10)
		w.digestOps = sz.pick(500, 20)
		w.epochOps = sz.pick(25, 20)
		w.checks = 1
		w.ops, err = distinctShapes(reqs, 8, min(100, n), sz.pick(12000, 4000))
	case "lease-churn":
		w.graph = tree(sz.pick(200, 40))
		w.paint = func(g *topology.Graph, src *remos.StaticSource, k int) { paintTree(g, src, cond.SplitN(k), 8) }
		w.wal = true
		w.warm = sz.pick(600, 120)
		w.digestOps = sz.pick(1500, 60)
		w.epochOps = sz.pick(150, 30)
		w.ops, err = churnStream(reqs, 3*4096)
		w.seq = make([]int32, len(w.ops))
		for i := range w.seq {
			w.seq[i] = int32(i)
		}
	case "fabric-10k":
		clusters, per := sz.pick(100, 8), sz.pick(100, 8)
		w.graph = func() *topology.Graph { return testbed.MultiCluster(clusters, per, testbed.Ethernet100, 1e9) }
		w.paint = func(g *topology.Graph, src *remos.StaticSource, k int) { paintClusters(g, src, cond.SplitN(k)) }
		w.warm = sz.pick(60, 20)
		w.setups = sz.pick(3, 2)
		w.checks = 6
		w.ops, err = fabricStream(reqs, min(100, clusters*per), 3000)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	return w, nil
}

// paintTree draws a load average per node and a used bandwidth per link.
// With tiers > 0 the available fraction of each link is one of tiers
// levels, so the sweep has few thresholds; with tiers == 0 it is drawn
// continuously and every link is a tier of its own.
func paintTree(g *topology.Graph, src *remos.StaticSource, rng *randx.Source, tiers int) {
	for _, id := range g.ComputeNodes() {
		src.SetLoad(id, rng.Uniform(0, 2))
	}
	for _, l := range g.Links() {
		avail := rng.Uniform(0.5, 1)
		if tiers > 0 {
			avail = 0.5 + math.Floor((avail-0.5)*2*float64(tiers))/(2*float64(tiers))
		}
		src.SetUsedBW(l.ID, (1-avail)*l.Capacity)
	}
}

// paintClusters draws per-node loads and one available fraction per
// cluster switch, shared by all of its access links, so clusters stay
// homogeneous in the sense internal/hierarchy collapses. Backbone links draw
// independently.
func paintClusters(g *topology.Graph, src *remos.StaticSource, rng *randx.Source) {
	for _, id := range g.ComputeNodes() {
		src.SetLoad(id, rng.Uniform(0, 2))
	}
	quant := func(f float64) float64 { return math.Floor(f*16) / 16 }
	anchorFrac := map[int]float64{}
	for _, l := range g.Links() {
		anchor := -1
		if g.Node(l.B).Kind == topology.Compute {
			anchor = l.A
		} else if g.Node(l.A).Kind == topology.Compute {
			anchor = l.B
		}
		avail := quant(rng.Uniform(0.5, 1))
		if anchor >= 0 {
			f, ok := anchorFrac[anchor]
			if !ok {
				f = avail
				anchorFrac[anchor] = f
			}
			avail = f
		}
		src.SetUsedBW(l.ID, (1-avail)*l.Capacity)
	}
}

// encode fills in an operation's JSON body.
func encode(o op) (op, error) {
	if o.kind == opRelease {
		return o, nil
	}
	body, err := json.Marshal(o.req)
	if err != nil {
		return op{}, err
	}
	o.body = body
	return o, nil
}

// hotShapes are select-hot's 16 fixed request shapes: M from 4 to 32 under
// both objectives.
func hotShapes() []selectsvc.SelectRequest {
	var out []selectsvc.SelectRequest
	for _, m := range []int{4, 6, 8, 12, 16, 20, 24, 32} {
		for _, algo := range []string{core.AlgoBalanced, core.AlgoBandwidth} {
			out = append(out, selectsvc.SelectRequest{M: m, Algo: algo})
		}
	}
	return out
}

// hotStream encodes the fixed shapes and draws a sequence of n of them
// uniformly.
func hotStream(rng *randx.Source, n int) ([]op, []int32, error) {
	shapes := hotShapes()
	ops := make([]op, len(shapes))
	for i, s := range shapes {
		o, err := encode(op{kind: opSelect, req: s})
		if err != nil {
			return nil, nil, err
		}
		ops[i] = o
	}
	seq := make([]int32, n)
	for i := range seq {
		seq[i] = int32(rng.Intn(len(ops)))
	}
	return ops, seq, nil
}

// sweepPriorities are the compute priorities distinct-shape requests draw
// from.
var sweepPriorities = []float64{0.5, 0.75, 1, 1.25, 1.5, 2, 2.5, 3}

// distinctShapes returns n plain selects, no two with the same shape. The
// stream is stratified: it runs in blocks, each a permutation of every
// (M, objective) pair with M in [lo, hi], so any two runs of similar length
// see nearly the same mix of sizes. Each pair cycles through the
// sweep priorities (from a seeded offset) and then through bandwidth floors
// of a few kbps, far below any link's availability: they change the cache
// key, not the answer's feasibility.
func distinctShapes(rng *randx.Source, lo, hi, n int) ([]op, error) {
	type pair struct {
		m    int
		algo string
	}
	var pairs []pair
	for m := lo; m <= hi; m++ {
		for _, algo := range []string{core.AlgoBalanced, core.AlgoBandwidth} {
			pairs = append(pairs, pair{m, algo})
		}
	}
	offset := make([]int, len(pairs))
	for i := range offset {
		offset[i] = rng.Intn(len(sweepPriorities))
	}
	out := make([]op, 0, n)
	for block := 0; len(out) < n; block++ {
		// The first block, which holds the warm-up, has the same order for
		// every seed, so set-up does the same amount of work.
		order := rng.Perm(len(pairs))
		if block == 0 {
			order = randx.New(topologySeed).Perm(len(pairs))
		}
		for _, i := range order {
			if len(out) == n {
				break
			}
			p := pairs[i]
			o, err := encode(op{kind: opSelect, req: selectsvc.SelectRequest{
				M:        p.m,
				Algo:     p.algo,
				Priority: sweepPriorities[(block+offset[i])%len(sweepPriorities)],
				MinBW:    float64(block/len(sweepPriorities)) * 1000,
			}})
			if err != nil {
				return nil, err
			}
			out = append(out, o)
		}
	}
	return out, nil
}

// churnActive is how many leases lease-churn holds before each cycle
// releases the oldest.
const churnActive = 32

// churnStream is lease-churn's repeating cycle: a leased select with M
// cycling through {4, 8, 16} and a small seeded demand, a plain select of
// one fixed shape, and a release of the oldest lease. The client skips
// releases until it holds more than churnActive leases.
func churnStream(rng *randx.Source, n int) ([]op, error) {
	plain, err := encode(op{kind: opSelect, req: selectsvc.SelectRequest{M: 8, Algo: core.AlgoBalanced}})
	if err != nil {
		return nil, err
	}
	out := make([]op, 0, n)
	for len(out) < n {
		// M cycles, so the held leases always have the same mix of sizes.
		m := []int{4, 8, 16}[len(out)/3%3]
		algo := []string{core.AlgoBalanced, core.AlgoBandwidth}[rng.Intn(2)]
		leased, err := encode(op{kind: opLeased, req: selectsvc.SelectRequest{
			M:        m,
			Algo:     algo,
			Demand:   &lease.Demand{CPU: 0.01 * float64(1+rng.Intn(3)), BW: 10e3 * float64(1+rng.Intn(3))},
			LeaseTTL: 600,
		}})
		if err != nil {
			return nil, err
		}
		out = append(out, leased, plain, op{kind: opRelease})
	}
	return out, nil
}

// fabricHot is the one shape nine in ten fabric-10k requests repeat.
var fabricHot = selectsvc.SelectRequest{M: 16, Algo: core.AlgoBalanced}

// fabricStream interleaves the hot shape with new shapes: every tenth
// request is a distinct shape (M from 4 to 100, both objectives, a few
// priorities) that misses the cache and runs the flat sweep.
func fabricStream(rng *randx.Source, maxM, misses int) ([]op, error) {
	hot, err := encode(op{kind: opSelect, req: fabricHot})
	if err != nil {
		return nil, err
	}
	fresh, err := distinctShapes(rng, 4, maxM, misses)
	if err != nil {
		return nil, err
	}
	out := make([]op, 0, 10*misses)
	// The fresh shapes all carry a nonzero priority, so none shares the hot
	// shape's cache key.
	for _, f := range fresh {
		for i := 0; i < 9; i++ {
			out = append(out, hot)
		}
		out = append(out, f)
	}
	return out, nil
}
