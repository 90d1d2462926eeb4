package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"time"

	"declpat/internal/algorithms"
	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/pattern"
	"declpat/internal/pmap"
)

// The simulated machine: 2 ranks with one handler thread each, one process.
const (
	ranks   = 2
	threads = 1
)

type kernel int

const (
	kBFS kernel = iota
	kSSSP
	kCC
	kPageRank
	numKernels
)

var kernelNames = [numKernels]string{"bfs", "sssp", "cc", "pagerank"}

// kernelOp is one kernel run of the fixed sequence.
type kernelOp struct {
	k   kernel
	src distgraph.Vertex
}

// roundMix is one round of the kernel sequence: runs per kernel, weighted
// so BFS and SSSP, whose medians are end-to-end metrics, gather samples
// while PageRank, ten times slower, does not take the whole run.
var roundMix = [numKernels]int{kBFS: 4, kSSSP: 4, kCC: 2, kPageRank: 1}

// roundLen is the number of kernel runs in one round.
var roundLen = func() int {
	n := 0
	for _, c := range roundMix {
		n += c
	}
	return n
}()

// kernelSequence draws rounds of roundMix, each round in a seeded order; BFS
// and SSSP each cycle through the sources.
func kernelSequence(in *inputs, rounds int, seed uint64) []kernelOp {
	rng := rand.New(rand.NewPCG(seed, 0x5e9))
	var round []kernel
	for k, c := range roundMix {
		for i := 0; i < c; i++ {
			round = append(round, kernel(k))
		}
	}
	src := [numKernels]func() distgraph.Vertex{kBFS: sourceCycle(rng, in.sources), kSSSP: sourceCycle(rng, in.sources)}
	var ops []kernelOp
	for i := 0; i < rounds; i++ {
		for _, j := range rng.Perm(len(round)) {
			op := kernelOp{k: round[j]}
			if next := src[op.k]; next != nil {
				op.src = next()
			}
			ops = append(ops, op)
		}
	}
	return ops
}

// kernelProgram is one set-up program instance: graph, universe, engine and
// the four bound solvers, with the clock readings that time its set-up.
type kernelProgram struct {
	u    *am.Universe
	g    *distgraph.Graph
	bfs  *algorithms.BFS
	sssp *algorithms.SSSP
	cc   *algorithms.CC
	pr   *algorithms.PageRank

	t0, built, bind0, bind1, runCall, runDone int64
	entry, exit                               [ranks]int64 // each rank's body entry and exit
}

// setupKernels builds the program from the generated edges: the graph, a
// universe on the chosen transport, the engine and the four solvers.
func setupKernels(in *inputs, unix bool) *kernelProgram {
	p := &kernelProgram{}
	p.t0 = now()
	dist := distgraph.NewBlockDist(in.n, ranks)
	p.g = distgraph.Build(dist, in.edges, distgraph.Options{Symmetrize: true})
	p.built = now()
	opts := []am.Option{am.WithThreads(threads)}
	if unix {
		opts = append(opts, am.WithTransport(am.SockTransport(am.SockOptions{Network: "unix"})))
	}
	p.u = am.New(ranks, opts...)
	p.bind0 = now()
	lm := pmap.NewLockMap(dist, 1)
	eng := pattern.NewEngine(p.u, p.g, lm, pattern.DefaultPlanOptions())
	if unix {
		eng.MsgType().WithWire()
	}
	p.bfs = algorithms.NewBFS(eng)
	p.sssp = algorithms.NewSSSP(eng)
	p.cc = algorithms.NewCC(eng, lm)
	p.pr = algorithms.NewPageRank(eng, algorithms.PageRankPush)
	p.bind1 = now()
	return p
}

// run drives Universe.Run with body, recording when each rank body is
// entered and exits.
func (p *kernelProgram) run(body func(r *am.Rank)) error {
	p.runCall = now()
	err := p.u.Run(func(r *am.Rank) {
		p.entry[r.ID()] = now()
		body(r)
		p.exit[r.ID()] = now()
	})
	p.runDone = now()
	return err
}

// firstEntry returns when the first rank body was entered: the end of set-up.
func (p *kernelProgram) firstEntry() int64 { return slices.Min(p.entry[:]) }

// traceSetup records the setup span (Build call to first rank body) with its
// build, bind and am.start children, and the am.stop span (last rank body
// exit to Run's return).
func (p *kernelProgram) traceSetup(tr *tracer, id int64) {
	first := p.firstEntry()
	root := tr.add(0, spanSetup, id, -1, p.t0, first)
	tr.add(root, spanBuild, id, -1, p.t0, p.built)
	tr.add(root, spanBind, id, -1, p.bind0, p.bind1)
	tr.add(root, spanStart, id, -1, p.runCall, first)
	tr.add(0, spanStop, id, -1, slices.Max(p.exit[:]), p.runDone)
}

// testStats sums the engine's condition tests and changed modifications over
// every bound action.
func (p *kernelProgram) testStats() (tests, useful int64) {
	for _, ba := range []*pattern.BoundAction{p.bfs.Visit, p.sssp.Relax, p.cc.Search, p.cc.Link, p.cc.Jump, p.pr.Action} {
		tests += ba.Stats.TestsTrue.Load() + ba.Stats.TestsFalse.Load()
		useful += ba.Stats.ModsChanged.Load()
	}
	return tests, useful
}

// kernelPhase is one stretch of the measurement loop; it adds what it
// measured to its tally.
type kernelPhase struct {
	traced bool
	rounds int           // >0: exactly this many rounds
	dur    time.Duration // otherwise: whole rounds until dur has passed
	t      *kernelTally

	start           int64
	firstOp         int
	ms0             runtime.MemStats
	ctr0            am.Snapshot
	tests0, useful0 int64
}

// kernelTally accumulates the phases of one mode: warm-up, untraced or
// traced.
type kernelTally struct {
	ops           int
	seconds       float64 // wall time of its phases
	kernelNs      int64
	samples       [numKernels][]int64 // rank 0's barrier-to-barrier ns
	all           []int64
	prRounds      []int
	ctr           am.Snapshot // substrate counter deltas
	tests, useful int64       // pattern engine condition tests, changed modifications
	mem           memDelta
}

func newKernelTally() *kernelTally {
	t := &kernelTally{all: make([]int64, 0, 1<<14)}
	for k := range t.samples {
		t.samples[k] = make([]int64, 0, 1<<12)
	}
	return t
}

// kernelBench measures one program instance: it runs the op sequence inside
// a single Universe.Run, phase after phase, checking every output.
type kernelBench struct {
	in     *inputs
	p      *kernelProgram
	ops    []kernelOp
	phases []*kernelPhase
	tr     *tracer

	cur     int    // current phase
	heap    uint64 // live heap once set up
	fails   []string
	nfail   int64
	prFirst []int64 // the first PageRank result, for the repeatability check

	// Per-rank clock readings, double-buffered by op parity: rank 0 reads
	// op i-1's slots after the collective that opens op i, while the other
	// ranks write op i's.
	callStart, callEnd, barExit [2][ranks]int64
	opTraced                    [2]bool
}

// body is every rank's SPMD body.
func (b *kernelBench) body(r *am.Rank) {
	rid := r.ID()
	if rid == 0 {
		b.heap = liveHeap()
	}
	r.Barrier()
	for i := 0; ; i++ {
		stop := false
		if rid == 0 {
			stop = b.advance(i)
		}
		stopAll := r.AllReduceOr(stop)
		if rid == 0 && i > 0 && b.opTraced[(i-1)&1] {
			b.traceOp(i - 1)
		}
		if stopAll {
			return
		}
		op := b.ops[i%len(b.ops)]
		par := i & 1
		if rid == 0 {
			b.opTraced[par] = b.phases[b.cur].traced
		}
		r.Barrier()
		b.callStart[par][rid] = now()
		b.call(r, op)
		b.callEnd[par][rid] = now()
		r.Barrier()
		b.barExit[par][rid] = now()
		if rid == 0 {
			b.finish(i, op, b.barExit[par][0]-b.callStart[par][0])
		}
	}
}

func (b *kernelBench) call(r *am.Rank, op kernelOp) {
	switch op.k {
	case kBFS:
		b.p.bfs.Run(r, op.src)
	case kSSSP:
		b.p.sssp.Run(r, op.src)
	case kCC:
		b.p.cc.Run(r)
	case kPageRank:
		b.p.pr.Run(r)
	}
}

// advance runs on rank 0 before op i: at a round boundary it closes the
// current phase once its rounds or time are used up and opens the next. It
// reports whether the loop is over.
func (b *kernelBench) advance(i int) bool {
	if i == 0 {
		b.open(0, 0)
		return false
	}
	if i%roundLen != 0 {
		return false
	}
	ph := b.phases[b.cur]
	done := ph.rounds > 0 && i-ph.firstOp >= ph.rounds*roundLen
	if ph.rounds == 0 && time.Duration(now()-ph.start) >= ph.dur {
		done = true
	}
	if !done {
		return false
	}
	b.close(i)
	if b.cur+1 == len(b.phases) {
		return true
	}
	b.cur++
	b.open(b.cur, i)
	return false
}

func (b *kernelBench) open(pi, i int) {
	ph := b.phases[pi]
	ph.firstOp = i
	runtime.ReadMemStats(&ph.ms0)
	ph.ctr0 = b.p.u.Stats.Snapshot()
	ph.tests0, ph.useful0 = b.p.testStats()
	ph.start = now()
}

func (b *kernelBench) close(i int) {
	ph := b.phases[b.cur]
	t := ph.t
	t.seconds += float64(now()-ph.start) / 1e9
	t.ops += i - ph.firstOp
	t.ctr = addSnapshot(t.ctr, b.p.u.Stats.Snapshot().Sub(ph.ctr0))
	tests, useful := b.p.testStats()
	t.tests += tests - ph.tests0
	t.useful += useful - ph.useful0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.mem.add(&ph.ms0, &ms)
}

// finish runs on rank 0 after op i's post-run barrier: it records the run's
// time d, from rank 0 leaving the pre-run barrier to it leaving the post-run
// barrier, and checks the output against the references.
func (b *kernelBench) finish(i int, op kernelOp, d int64) {
	t := b.phases[b.cur].t
	t.samples[op.k] = append(t.samples[op.k], d)
	t.all = append(t.all, d)
	t.kernelNs += d
	if op.k == kPageRank {
		t.prRounds = append(t.prRounds, b.p.pr.Rounds)
	}
	if err := b.check(op); err != nil {
		b.nfail++
		if len(b.fails) < 8 {
			b.fails = append(b.fails, fmt.Sprintf("op %d: %v", i, err))
		}
	}
}

// check verifies one kernel run's output, reading every rank's shard
// directly (the ranks are quiescent between the barriers).
func (b *kernelBench) check(op kernelOp) error {
	g := b.p.g
	switch op.k {
	case kBFS:
		return checkPath("bfs", func(v distgraph.Vertex) int64 { return b.p.bfs.Level.Get(g.Owner(v), v) }, b.in.bfsRef[op.src])
	case kSSSP:
		return checkPath("sssp", func(v distgraph.Vertex) int64 { return b.p.sssp.Dist.Get(g.Owner(v), v) }, b.in.ssspRef[op.src])
	case kCC:
		return b.in.checkCC(func(v distgraph.Vertex) int64 { return b.p.cc.Comp.Get(g.Owner(v), v) })
	case kPageRank:
		rank := func(v distgraph.Vertex) int64 { return b.p.pr.Rank.Get(g.Owner(v), v) }
		if err := b.in.checkPageRank(rank, b.p.pr.Rounds); err != nil {
			return err
		}
		if b.prFirst == nil {
			b.prFirst = b.p.pr.Rank.Gather()
			return nil
		}
		for v, want := range b.prFirst {
			if got := rank(distgraph.Vertex(v)); got != want {
				return fmt.Errorf("pagerank: vertex %d = %d differs from the first run's %d", v, got, want)
			}
		}
	}
	return nil
}

// traceOp records op i's spans: the run from rank 0's pre-run barrier exit
// to its post-run barrier exit, and per rank the kernel call and the wait in
// the post-run barrier.
func (b *kernelBench) traceOp(i int) {
	par := i & 1
	name := kernelSpan + kernelNames[b.ops[i%len(b.ops)].k]
	root := b.tr.add(0, name, int64(i), -1, b.callStart[par][0], b.barExit[par][0])
	for rk := 0; rk < ranks; rk++ {
		b.tr.add(root, spanCall, int64(i), rk, b.callStart[par][rk], b.callEnd[par][rk])
		b.tr.add(root, spanBarrier, int64(i), rk, b.callEnd[par][rk], b.barExit[par][rk])
	}
}

// runKernels runs kernel-chan or kernel-unix: setups program set-ups, the
// last of which runs the warm-up round and the measured phases.
func runKernels(cfg config, unix bool) (*outcome, *tracer, error) {
	const scale = 12
	in := makeInputs(scale, 8, 64, cfg.seed)
	o := &outcome{metrics: map[string]float64{}}
	o.printf("inputs: RMAT scale %d, edge factor 8, weights 1-100, symmetrized, block distribution: n=%d edges=%d, largest component %d vertices, %d sources drawn from it",
		scale, in.n, len(in.edges), in.giant, len(in.sources))
	tr := newTracer(cfg.trace)
	warm, untraced, traced := newKernelTally(), newKernelTally(), newKernelTally()
	phases := []*kernelPhase{{rounds: 1, t: warm}}
	full := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		// Untraced, traced, traced, untraced: the two modes see the same
		// mean time into the run, so a linear drift cancels out of
		// bench.trace_overhead_frac.
		for _, t := range []*kernelTally{untraced, traced, traced, untraced} {
			phases = append(phases, &kernelPhase{traced: t == traced, dur: full / 4, t: t})
		}
	} else {
		phases = append(phases, &kernelPhase{dur: full, t: untraced})
	}

	var setupNs []int64
	var heapBase uint64
	var b *kernelBench
	for s := 0; s < setups; s++ {
		last := s == setups-1
		if h := liveHeap(); last {
			heapBase = h
		}
		p := setupKernels(in, unix)
		body := func(*am.Rank) {}
		if last {
			b = &kernelBench{in: in, p: p, ops: kernelSequence(in, 64, cfg.seed), phases: phases, tr: tr}
			body = b.body
		}
		if err := p.run(body); err != nil {
			return nil, nil, fmt.Errorf("set-up %d: Universe.Run: %w", s, err)
		}
		p.traceSetup(tr, int64(s))
		setupNs = append(setupNs, p.firstEntry()-p.t0)
	}
	o.attempted = int64(warm.ops + untraced.ops + traced.ops)
	o.fail(b.nfail, b.fails)

	o.metrics["setup_s"] = medianOf(setupNs, time.Second)
	o.printf("setup_s: median of %d set-ups (Build call to first rank body)", len(setupNs))
	o.metrics["setup_heap_mb"] = (float64(b.heap) - float64(heapBase)) / 1e6
	o.kernelTallyReport("untraced", untraced)
	if cfg.trace {
		o.kernelTallyReport("traced", traced)
		o.kernelLayers(tr.snapshot(), untraced, traced)
		return o, tr, nil
	}
	t := untraced
	o.metrics["ops_per_s"] = ratio(float64(t.ops), float64(t.kernelNs)/1e9)
	o.metrics["bfs_ms"] = medianOf(t.samples[kBFS], time.Millisecond)
	o.metrics["sssp_ms"] = medianOf(t.samples[kSSSP], time.Millisecond)
	o.metrics["op_ms_p95"] = quantile(msOf(t.all), 0.95)
	o.metrics["alloc_mb_per_op"] = ratio(float64(t.mem.alloc)/1e6, float64(t.ops))
	o.printMetrics(endToEnd, map[string]string{
		"ops_per_s": fmt.Sprintf("%d kernel runs over %.3f s of kernel time", t.ops, float64(t.kernelNs)/1e9),
		"bfs_ms":    fmt.Sprintf("median of %d runs", len(t.samples[kBFS])),
		"sssp_ms":   fmt.Sprintf("median of %d runs", len(t.samples[kSSSP])),
		"op_ms_p95": fmt.Sprintf("p95 of %d runs of all four kernels", len(t.all)),
	})
	return o, tr, nil
}

// kernelTallyReport prints one mode's per-kernel times and link failures.
func (o *outcome) kernelTallyReport(mode string, t *kernelTally) {
	o.printf("%s: %d kernel runs in %.3f s", mode, t.ops, t.seconds)
	for k := kernel(0); k < numKernels; k++ {
		ms := msOf(t.samples[k])
		o.printf("  %s_ms = %.4f ms median, p90 %.4f ms, n=%d", kernelNames[k], quantile(ms, 0.5), quantile(ms, 0.9), len(ms))
	}
	o.printf("  pagerank rounds mean %.2f; link failures: %s", meanInts(t.prRounds), linkFailures(t.ctr))
}

// kernelLayers derives the per-layer metrics of a traced kernel run.
func (o *outcome) kernelLayers(spans []span, untraced, traced *kernelTally) {
	m := o.metrics
	for _, d := range perLayer {
		m[d.name] = 0
	}
	ops := traced.ops
	m["distgraph.build_ms"] = medianOf(spanDurs(spans, spanBuild), time.Millisecond)
	m["pattern.bind_ms"] = medianOf(spanDurs(spans, spanBind), time.Millisecond)
	m["am.start_ms"] = medianOf(spanDurs(spans, spanStart), time.Millisecond)
	m["am.stop_ms"] = medianOf(spanDurs(spans, spanStop), time.Millisecond)
	m["pattern.tests_per_op"] = ratio(float64(traced.tests), float64(ops))
	m["pattern.useful_frac"] = ratio(float64(traced.useful), float64(traced.tests))
	m["algorithms.pr_rounds"] = meanInts(traced.prRounds)

	sp := setupPartition(spans)
	o.printf("partition %s", sp)
	var barrierExit, other []int64
	for k := kernel(0); k < numKernels; k++ {
		kp := kernelPartition(spans, kernelNames[k])
		o.printf("partition %s", kp)
		m["algorithms."+kernelNames[k]+"_call_ms"] = quantile(msOf(kp.part[0]), 0.5)
		barrierExit = append(barrierExit, kp.part[1]...)
		other = append(other, kp.other...)
	}
	m["partition.setup_other_ms"] = meanMs(sp.other)
	m["partition.kernel_barrier_exit_ms"] = meanMs(barrierExit)
	m["partition.kernel_other_ms"] = meanMs(other)

	var skew []int64
	for _, kids := range children(spans) {
		lo, hi := int64(1<<62), int64(0)
		for _, k := range kids {
			if k.Name == spanCall {
				lo, hi = min(lo, k.dur()), max(hi, k.dur())
			}
		}
		if hi > 0 {
			skew = append(skew, hi-lo)
		}
	}
	m["am.rank_skew_ms"] = meanMs(skew)
	m["am.barrier_wait_ms"] = meanMs(spanDurs(spans, spanBarrier))
	substrateMetrics(m, traced.ctr, ops)
	runtimeMetrics(m, traced.mem, ops)
	m["bench.trace_overhead_frac"] = ratio(float64(traced.kernelNs)/float64(ops), float64(untraced.kernelNs)/float64(untraced.ops)) - 1
	o.printMetrics(perLayer, kernelNotes)
}

// kernelNotes marks the per-layer metrics a kernel workload cannot observe.
var kernelNotes = map[string]string{
	"query.submit_us_p50": "n/a: no query plane", "query.queue_wait_ms_p50": "n/a: no query plane",
	"query.queue_wait_ms_p99": "n/a: no query plane", "query.service_ms_p50": "n/a: no query plane",
	"query.service_ms_p99": "n/a: no query plane", "query.notify_ms_p50": "n/a: no query plane",
	"query.batch_width_mean": "n/a: no query plane", "query.epochs_per_query": "n/a: no query plane",
	"query.rejected": "n/a: no query plane", "query.expired": "n/a: no query plane",
	"partition.query_other_us": "n/a: no query plane",
}
