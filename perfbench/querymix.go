package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/pattern"
	"declpat/internal/pmap"
	"declpat/internal/query"
)

// outstanding is the closed loop's caller count: that many tickets are in
// flight at any time, as with declpat-serve clients blocked on /wait.
const outstanding = 8

// queryRequests draws the seeded request stream: BFS and SSSP alternate 1:1,
// cycling through the sources.
func queryRequests(in *inputs, n int, seed uint64) []query.Request {
	src := sourceCycle(rand.New(rand.NewPCG(seed, 0x9e7)), in.sources)
	reqs := make([]query.Request, n)
	for i := range reqs {
		a := query.BFS
		if i%2 == 1 {
			a = query.SSSP
		}
		reqs[i] = query.Request{Algo: a, Source: src()}
	}
	return reqs
}

// queryProgram is one set-up resident service and its set-up clock readings.
type queryProgram struct {
	u      *am.Universe
	svc    *query.Service
	served chan error

	t0, built, bind0, bind1, serveCall int64
	warm                               *query.Result
	warmDone                           int64
	stopCall, stopped                  int64
}

// setupQuery builds the graph, universe, engine and service, starts Serve
// and waits for one warm-up BFS query; set-up ends when its Wait returns.
func setupQuery(in *inputs) (*queryProgram, error) {
	p := &queryProgram{served: make(chan error, 1)}
	p.t0 = now()
	dist := distgraph.NewBlockDist(in.n, ranks)
	g := distgraph.Build(dist, in.edges, distgraph.Options{Symmetrize: true})
	p.built = now()
	p.u = am.New(ranks, am.WithThreads(threads))
	p.bind0 = now()
	eng := pattern.NewEngine(p.u, g, pmap.NewLockMap(dist, 1), pattern.DefaultPlanOptions())
	p.svc = query.New(eng)
	p.bind1 = now()
	p.serveCall = now()
	go func() { p.served <- p.svc.Serve() }()
	src := in.sources[0]
	t, err := p.svc.Submit(query.Request{Algo: query.BFS, Source: src})
	if err == nil {
		p.warm, err = t.Wait()
	}
	p.warmDone = now()
	if err == nil {
		err = checkPath("bfs", func(v distgraph.Vertex) int64 { return p.warm.Values[v] }, in.bfsRef[src])
	}
	if err != nil {
		if serr := p.stop(); serr != nil {
			err = fmt.Errorf("%w (and stopping the service: %v)", err, serr)
		}
		return nil, fmt.Errorf("warm-up query: %w", err)
	}
	return p, nil
}

// stop stops the service and waits for Serve to return.
func (p *queryProgram) stop() error {
	p.stopCall = now()
	p.svc.Stop()
	err := <-p.served
	p.stopped = now()
	return err
}

// traceSetup records the setup span (Build call to the warm-up query's Wait
// return) with its build, bind and am.start children, and the am.stop span.
// Serve's rank bodies are the service's own, so am.start runs from the
// Serve call to the warm-up query's Started stamp, the first moment a rank
// body is seen to run.
func (p *queryProgram) traceSetup(tr *tracer, id int64) {
	root := tr.add(0, spanSetup, id, -1, p.t0, p.warmDone)
	tr.add(root, spanBuild, id, -1, p.t0, p.built)
	tr.add(root, spanBind, id, -1, p.bind0, p.bind1)
	tr.add(root, spanStart, id, -1, p.serveCall, sinceBase(p.warm.Started))
	tr.add(0, spanStop, id, -1, p.stopCall, p.stopped)
}

// queryDone is one completed (or failed) query as its caller saw it.
type queryDone struct {
	req                query.Request
	call, sub, waitRet int64 // Submit call, Submit return, Wait return
	res                *query.Result
}

// queryTally accumulates the closed-loop phases of one mode: warm-up,
// untraced or traced.
type queryTally struct {
	seconds           float64 // wall time of its phases
	done              []queryDone
	completed         int // queries whose Wait returned before their phase ended
	attempted, nfail  int64
	fails             []string
	ctr               am.Snapshot // substrate counter deltas
	rejected, expired int64
	mem               memDelta
}

func (t *queryTally) fail(format string, args ...any) {
	t.nfail++
	if len(t.fails) < 8 {
		t.fails = append(t.fails, fmt.Sprintf(format, args...))
	}
}

// closedLoop runs one phase of dur and adds it to t: one goroutine submits
// whenever fewer than outstanding tickets are in flight, another waits on
// them in submission order, checks each answer and frees its slot. After
// dur the submitter stops and the waiter drains what is in flight. A nil
// tracer leaves the phase untraced. It returns the next request index.
func (p *queryProgram) closedLoop(in *inputs, reqs []query.Request, next int, dur time.Duration, t *queryTally, tr *tracer) int {
	type inflight struct {
		req       query.Request
		t         *query.Ticket
		call, sub int64
	}
	free := make(chan struct{}, outstanding)
	for i := 0; i < outstanding; i++ {
		free <- struct{}{}
	}
	pending := make(chan inflight, outstanding)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ctr0 := p.u.Stats.Snapshot()
	st0 := p.svc.Stats()
	start := now()
	deadline := start + int64(dur)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // submitter
		defer wg.Done()
		defer close(pending)
		for {
			<-free
			if now() >= deadline {
				return
			}
			req := reqs[next%len(reqs)]
			next++
			call := now()
			tk, err := p.svc.Submit(req)
			sub := now()
			if err != nil {
				// A refused submission is a failed op; the waiter only
				// touches t after this goroutine has closed pending.
				pending <- inflight{req: req, call: call, sub: sub}
				continue
			}
			pending <- inflight{req: req, t: tk, call: call, sub: sub}
		}
	}()
	go func() { // waiter
		defer wg.Done()
		for f := range pending {
			t.attempted++
			if f.t == nil {
				t.fail("submit %v from %d refused", f.req.Algo, f.req.Source)
				free <- struct{}{}
				continue
			}
			res, err := f.t.Wait()
			ret := now()
			if err != nil {
				t.fail("query %d (%v from %d): %v", f.t.ID(), f.req.Algo, f.req.Source, err)
			} else {
				d := queryDone{req: f.req, call: f.call, sub: f.sub, waitRet: ret, res: res}
				t.done = append(t.done, d)
				if tr != nil {
					p.traceQuery(tr, d)
				}
				if ret <= deadline {
					t.completed++
				}
				if err := checkQuery(in, res); err != nil {
					t.fail("query %d: %v", res.ID, err)
				}
			}
			free <- struct{}{}
		}
	}()
	wg.Wait()
	t.seconds += dur.Seconds()
	st1 := p.svc.Stats()
	t.rejected += st1.Rejected - st0.Rejected
	t.expired += st1.Expired - st0.Expired
	t.ctr = addSnapshot(t.ctr, p.u.Stats.Snapshot().Sub(ctr0))
	runtime.ReadMemStats(&ms1)
	t.mem.add(&ms0, &ms1)
	return next
}

// checkQuery compares a query's values with its source's reference.
func checkQuery(in *inputs, res *query.Result) error {
	got := func(v distgraph.Vertex) int64 { return res.Values[v] }
	if len(res.Values) != in.n {
		return fmt.Errorf("%v from %d: %d values, want %d", res.Algo, res.Source, len(res.Values), in.n)
	}
	if res.Algo == query.BFS {
		return checkPath("bfs", got, in.bfsRef[res.Source])
	}
	return checkPath("sssp", got, in.ssspRef[res.Source])
}

// traceQuery records a completed query's span and its submit, queue,
// service and notify children.
func (p *queryProgram) traceQuery(tr *tracer, d queryDone) {
	r := d.res
	queued, started, finished := sinceBase(r.Queued), sinceBase(r.Started), sinceBase(r.Finished)
	root := tr.add(0, spanQuery, r.ID, -1, d.call, d.waitRet)
	tr.add(root, spanSubmit, r.ID, -1, d.call, d.sub)
	tr.add(root, spanQueue, r.ID, -1, queued, started)
	tr.add(root, spanService, r.ID, -1, started, finished)
	tr.add(root, spanNotify, r.ID, -1, finished, d.waitRet)
}

// runQueryMix runs query-mix: setups service set-ups, the last of which
// serves the warm-up and measured closed-loop phases.
func runQueryMix(cfg config) (*outcome, *tracer, error) {
	const scale = 10
	in := makeInputs(scale, 8, 64, cfg.seed)
	reqs := queryRequests(in, 1<<12, cfg.seed)
	o := &outcome{metrics: map[string]float64{}}
	o.printf("inputs: RMAT scale %d, edge factor 8, weights 1-100, symmetrized, block distribution: n=%d edges=%d, largest component %d vertices, %d sources drawn from it",
		scale, in.n, len(in.edges), in.giant, len(in.sources))
	o.printf("load: closed loop, %d callers, BFS:SSSP 1:1, service defaults", outstanding)
	tr := newTracer(cfg.trace)

	var setupNs []int64
	var heapBase uint64
	var p *queryProgram
	for s := 0; s < setups; s++ {
		p = nil // let the previous set-up's instance be collected
		if h := liveHeap(); s == setups-1 {
			heapBase = h
		}
		var err error
		if p, err = setupQuery(in); err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", s, err)
		}
		o.attempted++
		setupNs = append(setupNs, p.warmDone-p.t0)
		if s < setups-1 {
			if err := p.stop(); err != nil {
				return nil, nil, fmt.Errorf("set-up %d: Serve: %w", s, err)
			}
			p.traceSetup(tr, int64(s))
		}
	}
	heap := liveHeap()

	full := time.Duration(cfg.seconds * float64(time.Second))
	warm, untraced, traced := &queryTally{}, &queryTally{}, &queryTally{}
	next := p.closedLoop(in, reqs, 0, min(full/10, time.Second), warm, nil)
	if cfg.trace {
		// Untraced, traced, traced, untraced: a linear drift cancels out
		// of bench.trace_overhead_frac.
		for _, t := range []*queryTally{untraced, traced, traced, untraced} {
			var ptr *tracer
			if t == traced {
				ptr = tr
			}
			next = p.closedLoop(in, reqs, next, full/4, t, ptr)
		}
	} else {
		p.closedLoop(in, reqs, next, full, untraced, nil)
	}
	if err := p.stop(); err != nil {
		return nil, nil, fmt.Errorf("Serve: %w", err)
	}
	p.traceSetup(tr, int64(setups-1))
	for _, t := range []*queryTally{warm, untraced, traced} {
		o.attempted += t.attempted
		o.fail(t.nfail, t.fails)
	}

	o.metrics["setup_s"] = medianOf(setupNs, time.Second)
	o.printf("setup_s: median of %d set-ups (Build call to the warm-up query's Wait return)", len(setupNs))
	o.metrics["setup_heap_mb"] = (float64(heap) - float64(heapBase)) / 1e6
	o.queryTallyReport("untraced", untraced)
	if cfg.trace {
		o.queryTallyReport("traced", traced)
		o.queryLayers(tr.snapshot(), untraced, traced)
		return o, tr, nil
	}
	t := untraced
	lat := latencies(t)
	o.metrics["ops_per_s"] = ratio(float64(t.completed), t.seconds)
	o.metrics["bfs_ms"] = quantile(lat[query.BFS], 0.5)
	o.metrics["sssp_ms"] = quantile(lat[query.SSSP], 0.5)
	o.metrics["op_ms_p95"] = quantile(append(lat[query.BFS], lat[query.SSSP]...), 0.95)
	o.metrics["alloc_mb_per_op"] = ratio(float64(t.mem.alloc)/1e6, float64(len(t.done)))
	o.printMetrics(endToEnd, map[string]string{
		"ops_per_s": fmt.Sprintf("query_qps: %d queries completed in %.3f s", t.completed, t.seconds),
		"bfs_ms":    fmt.Sprintf("median Submit-to-Wait latency of %d BFS queries", len(lat[query.BFS])),
		"sssp_ms":   fmt.Sprintf("median Submit-to-Wait latency of %d SSSP queries", len(lat[query.SSSP])),
		"op_ms_p95": fmt.Sprintf("query_ms_p95 over %d queries", len(t.done)),
	})
	return o, tr, nil
}

// latencies returns each algorithm's Submit-call-to-Wait-return latencies in
// milliseconds.
func latencies(t *queryTally) map[query.Algo][]float64 {
	lat := map[query.Algo][]float64{}
	for _, d := range t.done {
		lat[d.req.Algo] = append(lat[d.req.Algo], float64(d.waitRet-d.call)/1e6)
	}
	return lat
}

// queryTallyReport prints one mode's throughput, latency and fusion.
func (o *outcome) queryTallyReport(mode string, t *queryTally) {
	var all []float64
	for _, l := range latencies(t) {
		all = append(all, l...)
	}
	width := 0
	for _, d := range t.done {
		width += d.res.BatchSize
	}
	o.printf("%s: query_qps = %.2f 1/s (%d completed in %.3f s), query_ms_p50 = %.4f ms, query_ms_p99 = %.4f ms (n=%d), mean fusion width %.2f",
		mode, ratio(float64(t.completed), t.seconds), t.completed, t.seconds,
		quantile(all, 0.5), quantile(all, 0.99), len(all), ratio(float64(width), float64(len(t.done))))
	if len(all) < 1000 {
		o.printf("  warning: p99 rests on %d samples, fewer than 1000", len(all))
	}
}

// queryLayers derives the per-layer metrics of a traced query-mix run.
func (o *outcome) queryLayers(spans []span, untraced, traced *queryTally) {
	m := o.metrics
	for _, d := range perLayer {
		m[d.name] = 0
	}
	n := len(traced.done)
	m["distgraph.build_ms"] = medianOf(spanDurs(spans, spanBuild), time.Millisecond)
	m["pattern.bind_ms"] = medianOf(spanDurs(spans, spanBind), time.Millisecond)
	m["am.start_ms"] = medianOf(spanDurs(spans, spanStart), time.Millisecond)
	m["am.stop_ms"] = medianOf(spanDurs(spans, spanStop), time.Millisecond)
	m["query.submit_us_p50"] = medianOf(spanDurs(spans, spanSubmit), time.Microsecond)
	queue := msOf(spanDurs(spans, spanQueue))
	service := msOf(spanDurs(spans, spanService))
	m["query.queue_wait_ms_p50"] = quantile(queue, 0.5)
	m["query.queue_wait_ms_p99"] = quantile(queue, 0.99)
	m["query.service_ms_p50"] = quantile(service, 0.5)
	m["query.service_ms_p99"] = quantile(service, 0.99)
	m["query.notify_ms_p50"] = medianOf(spanDurs(spans, spanNotify), time.Millisecond)
	width := 0
	for _, d := range traced.done {
		width += d.res.BatchSize
	}
	m["query.batch_width_mean"] = ratio(float64(width), float64(n))
	m["query.epochs_per_query"] = ratio(float64(traced.ctr.Epochs), float64(n))
	m["query.rejected"] = float64(traced.rejected)
	m["query.expired"] = float64(traced.expired)
	substrateMetrics(m, traced.ctr, n)
	runtimeMetrics(m, traced.mem, n)

	sp := setupPartition(spans)
	qp := queryPartition(spans)
	o.printf("partition %s", sp)
	o.printf("partition %s", qp)
	m["partition.setup_other_ms"] = meanMs(sp.other)
	m["partition.query_other_us"] = meanMs(qp.other) * 1e3
	m["bench.trace_overhead_frac"] = ratio(float64(untraced.completed)/untraced.seconds, float64(traced.completed)/traced.seconds) - 1
	o.printMetrics(perLayer, queryNotes)
}

// queryNotes marks the per-layer metrics query-mix cannot observe: the
// service's bound slots and rank bodies are its own.
var queryNotes = map[string]string{
	"pattern.tests_per_op": "n/a: service slots are private", "pattern.useful_frac": "n/a: service slots are private",
	"algorithms.pr_rounds": "n/a: no PageRank queries", "algorithms.bfs_call_ms": "n/a: no kernel calls",
	"algorithms.sssp_call_ms": "n/a: no kernel calls", "algorithms.cc_call_ms": "n/a: no kernel calls",
	"algorithms.pagerank_call_ms": "n/a: no kernel calls", "am.rank_skew_ms": "n/a: rank bodies are the service's",
	"am.barrier_wait_ms": "n/a: rank bodies are the service's", "partition.kernel_barrier_exit_ms": "n/a: no kernel calls",
	"partition.kernel_other_ms": "n/a: no kernel calls",
}
