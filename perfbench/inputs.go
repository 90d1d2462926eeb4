package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"declpat/internal/algorithms"
	"declpat/internal/distgraph"
	"declpat/internal/gen"
	"declpat/internal/pattern"
	"declpat/internal/seq"
)

// prTolerance bounds the L1 distance between the solver's fixed-point
// PageRank vector (as a fraction of PRScale) and the float64 reference run
// for the same number of rounds. The solver truncates every contribution to
// 2^-30 of the unit rank mass, so it drifts from the reference: by 2.1e-4 on
// the kernel workloads' graph (19 rounds). 1e-3 leaves room for that drift
// and still catches a wrong damping, dangling-mass rule or edge set; a
// message lost or duplicated in one run shows in the repeatability check.
const prTolerance = 1e-3

// prDamping mirrors algorithms.PageRank's default damping (0.85).
const prDamping = 0.85

// inputs is one workload's generated graph, its seeded sources and the
// sequential references every output is checked against. Only edges and
// sources reach the program; the rest stays in the benchmark.
type inputs struct {
	n       int
	edges   []distgraph.Edge // as generated; the program symmetrizes them
	sym     []distgraph.Edge // edges plus their reverses, for the references
	sources []distgraph.Vertex
	giant   int // size of the largest component

	bfsRef  map[distgraph.Vertex][]int64
	ssspRef map[distgraph.Vertex][]int64
	ccRef   []distgraph.Vertex
	outDeg  []int // out-degree in sym, for the PageRank reference
	prRef   map[int][]float64
	least   []distgraph.Vertex // checkCC scratch, so checks do not allocate
}

// graphSeed fixes each workload's RMAT instance. The run seed varies what a
// user varies against one dataset (sources, kernel order, request stream),
// not the dataset itself: PageRank's round count alone ranges 18-23 across
// RMAT scale-12 instances, which would spread every kernel time by more
// than the bounds the benchmark gates on.
const graphSeed = 1

// makeInputs generates the workload's RMAT graph (weights 1-100) and draws
// nsrc sources from its largest component, from seed: one uniformly from
// each of nsrc equal slices of the component's vertices in id order. RMAT
// ids track degree, so the slices keep every seed's sources as spread out
// as the component, and a kernel's median over them steady across seeds.
func makeInputs(scale, edgeFactor, nsrc int, seed uint64) *inputs {
	n, edges := gen.RMAT(scale, edgeFactor, gen.Weights{Min: 1, Max: 100}, graphSeed)
	in := &inputs{n: n, edges: edges, bfsRef: map[distgraph.Vertex][]int64{},
		ssspRef: map[distgraph.Vertex][]int64{}, prRef: map[int][]float64{},
		least: make([]distgraph.Vertex, n)}
	in.sym = make([]distgraph.Edge, 0, 2*len(edges))
	for _, e := range edges {
		in.sym = append(in.sym, e, distgraph.Edge{Src: e.Dst, Dst: e.Src, W: e.W})
	}
	in.ccRef = seq.Components(n, in.sym)
	in.outDeg = make([]int, n)
	for _, e := range in.sym {
		in.outDeg[e.Src]++
	}

	size := map[distgraph.Vertex]int{}
	var label distgraph.Vertex
	for _, c := range in.ccRef {
		size[c]++
		if size[c] > size[label] || (size[c] == size[label] && c < label) {
			label = c
		}
	}
	var giant []distgraph.Vertex
	for v, c := range in.ccRef {
		if c == label {
			giant = append(giant, distgraph.Vertex(v))
		}
	}
	in.giant = len(giant)
	if nsrc > len(giant) {
		nsrc = len(giant)
	}
	rng := rand.New(rand.NewPCG(seed, 0x50c5))
	for i := 0; i < nsrc; i++ {
		lo, hi := i*len(giant)/nsrc, (i+1)*len(giant)/nsrc
		s := giant[lo+rng.IntN(hi-lo)]
		in.sources = append(in.sources, s)
		in.bfsRef[s] = seq.BFS(n, in.sym, s)
		in.ssspRef[s] = seq.Dijkstra(n, in.sym, s)
	}
	return in
}

// checkPath compares a BFS level or SSSP distance vector with its reference;
// the program marks unreached vertices pattern.Inf, the reference seq.Inf.
func checkPath(kind string, got func(v distgraph.Vertex) int64, want []int64) error {
	for v, w := range want {
		g := got(distgraph.Vertex(v))
		if g == pattern.Inf && w == seq.Inf {
			continue
		}
		if g != w {
			return fmt.Errorf("%s: vertex %d = %d, want %d", kind, v, g, w)
		}
	}
	return nil
}

// checkCC canonicalises component labels to the smallest member vertex and
// compares them with seq.Components. Labels are root vertex ids.
func (in *inputs) checkCC(comp func(v distgraph.Vertex) int64) error {
	for v := in.n - 1; v >= 0; v-- {
		c := comp(distgraph.Vertex(v))
		if c < 0 || c >= int64(in.n) {
			return fmt.Errorf("cc: vertex %d has label %d outside the vertex range", v, c)
		}
		in.least[c] = distgraph.Vertex(v)
	}
	for v, want := range in.ccRef {
		if got := in.least[comp(distgraph.Vertex(v))]; got != want {
			return fmt.Errorf("cc: vertex %d in component %d, want %d", v, got, want)
		}
	}
	return nil
}

// pagerankRef runs rounds of damped push PageRank in float64 with the
// solver's update rule: uniform start, dangling mass spread evenly.
func (in *inputs) pagerankRef(rounds int) []float64 {
	if ref, ok := in.prRef[rounds]; ok {
		return ref
	}
	n := float64(in.n)
	rank := make([]float64, in.n)
	next := make([]float64, in.n)
	for v := range rank {
		rank[v] = 1 / n
	}
	for it := 0; it < rounds; it++ {
		dangling := 0.0
		for v := range rank {
			next[v] = 0
			if in.outDeg[v] == 0 {
				dangling += rank[v]
			}
		}
		for _, e := range in.sym {
			next[e.Dst] += prDamping * rank[e.Src] / float64(in.outDeg[e.Src])
		}
		for v := range rank {
			rank[v] = (1-prDamping)/n + prDamping*dangling/n + next[v]
		}
	}
	in.prRef[rounds] = rank
	return rank
}

// checkPageRank compares fixed-point ranks with the float64 reference run for
// the solver's reported round count.
func (in *inputs) checkPageRank(rank func(v distgraph.Vertex) int64, rounds int) error {
	ref := in.pagerankRef(rounds)
	l1 := 0.0
	for v, want := range ref {
		l1 += math.Abs(float64(rank(distgraph.Vertex(v)))/float64(algorithms.PRScale) - want)
	}
	if l1 > prTolerance {
		return fmt.Errorf("pagerank: L1 distance %.3g from the reference after %d rounds exceeds %g", l1, rounds, prTolerance)
	}
	return nil
}

// sourceCycle returns successive sources from seeded permutations of the
// pool, reshuffled each time the pool is used up, so a run draws every
// source about equally often.
func sourceCycle(rng *rand.Rand, pool []distgraph.Vertex) func() distgraph.Vertex {
	var perm []int
	return func() distgraph.Vertex {
		if len(perm) == 0 {
			perm = rng.Perm(len(pool))
		}
		v := pool[perm[0]]
		perm = perm[1:]
		return v
	}
}
