package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"declpat/internal/algorithms"
	"declpat/internal/distgraph"
)

// TestMetricTablesMatchBenchmarkJSON keeps the metric tables in step with
// the BENCHMARK.json at the root of the repository.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

// TestPartitionArithmetic checks each partition on hand-built spans.
func TestPartitionArithmetic(t *testing.T) {
	tr := newTracer(true)
	root := tr.add(0, spanSetup, 0, -1, 100, 200)
	tr.add(root, spanBuild, 0, -1, 100, 130)
	tr.add(root, spanBind, 0, -1, 140, 150)
	tr.add(root, spanStart, 0, -1, 160, 200)
	k := tr.add(0, kernelSpan+"bfs", 1, -1, 1000, 1100)
	tr.add(k, spanCall, 1, 0, 1000, 1060)
	tr.add(k, spanCall, 1, 1, 1005, 1090)
	q := tr.add(0, spanQuery, 2, -1, 0, 50)
	tr.add(q, spanSubmit, 2, -1, 0, 4)
	tr.add(q, spanQueue, 2, -1, 3, 10)
	tr.add(q, spanService, 2, -1, 10, 45)
	tr.add(q, spanNotify, 2, -1, 45, 50)
	spans := tr.snapshot()

	for _, c := range []struct {
		p     *partition
		parts []int64
		other int64
	}{
		{setupPartition(spans), []int64{30, 10, 40}, 20},
		{kernelPartition(spans, "bfs"), []int64{85, 10}, 5},
		{queryPartition(spans), []int64{4, 7, 35, 5}, -1},
	} {
		if len(c.p.total) != 1 {
			t.Fatalf("%s: %d instances, want 1", c.p.name, len(c.p.total))
		}
		for i, want := range c.parts {
			if got := c.p.part[i][0]; got != want {
				t.Errorf("%s %s = %d, want %d", c.p.name, c.p.parts[i], got, want)
			}
		}
		if c.p.other[0] != c.other {
			t.Errorf("%s other = %d, want %d", c.p.name, c.p.other[0], c.other)
		}
	}
}

// checkPartition asserts that every instance's parts plus other equal its
// total, and returns the totals.
func checkPartition(t *testing.T, p *partition) []int64 {
	t.Helper()
	if len(p.total) == 0 {
		t.Fatalf("%s: no instances traced", p.name)
	}
	for i, total := range p.total {
		sum := p.other[i]
		for j := range p.parts {
			sum += p.part[j][i]
		}
		if sum != total {
			t.Errorf("%s instance %d: parts plus other = %d ns, total %d ns", p.name, i, sum, total)
		}
	}
	return p.total
}

// TestKernelTracedRun runs a short traced kernel-chan workload on a small
// graph: every output must check, every partition must add up, and each
// kernel span must last exactly the barrier-to-barrier time the untraced
// measurement records.
func TestKernelTracedRun(t *testing.T) {
	in := makeInputs(8, 8, 8, 7)
	p := setupKernels(in, false)
	tr := newTracer(true)
	traced := newKernelTally()
	phases := []*kernelPhase{{rounds: 1, t: newKernelTally()}, {traced: true, rounds: 2, t: traced}}
	b := &kernelBench{in: in, p: p, ops: kernelSequence(in, 4, 7), phases: phases, tr: tr}
	if err := p.run(b.body); err != nil {
		t.Fatal(err)
	}
	p.traceSetup(tr, 0)
	if b.nfail != 0 {
		t.Fatalf("%d failed checks: %v", b.nfail, b.fails)
	}
	spans := tr.snapshot()
	checkPartition(t, setupPartition(spans))
	if traced.ops != 2*roundLen {
		t.Fatalf("traced phase ran %d ops, want %d", traced.ops, 2*roundLen)
	}
	for k := kernel(0); k < numKernels; k++ {
		totals := checkPartition(t, kernelPartition(spans, kernelNames[k]))
		if len(totals) != len(traced.samples[k]) {
			t.Fatalf("%s: %d spans, %d samples", kernelNames[k], len(totals), len(traced.samples[k]))
		}
		for i, d := range totals {
			if d != traced.samples[k][i] {
				t.Errorf("%s run %d: span %d ns, measured %d ns", kernelNames[k], i, d, traced.samples[k][i])
			}
		}
	}
}

// TestQueryTracedRun runs a short traced closed loop: every answer must
// check, and each query's parts plus other must equal the Submit-to-Wait
// latency the caller measured.
func TestQueryTracedRun(t *testing.T) {
	in := makeInputs(8, 8, 16, 7)
	p, err := setupQuery(in)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(true)
	tally := &queryTally{}
	p.closedLoop(in, queryRequests(in, 64, 7), 0, 300*time.Millisecond, tally, tr)
	if err := p.stop(); err != nil {
		t.Fatal(err)
	}
	if tally.nfail != 0 || len(tally.done) == 0 {
		t.Fatalf("%d failed of %d attempted: %v", tally.nfail, tally.attempted, tally.fails)
	}
	totals := checkPartition(t, queryPartition(tr.snapshot()))
	if len(totals) != len(tally.done) {
		t.Fatalf("%d query spans, %d completed queries", len(totals), len(tally.done))
	}
	for i, d := range tally.done {
		if lat := d.waitRet - d.call; totals[i] != lat {
			t.Errorf("query %d: partition total %d ns, measured latency %d ns", d.res.ID, totals[i], lat)
		}
	}
}

// TestChecksCatchWrongOutputs makes sure the reference checks reject a
// corrupted answer.
func TestChecksCatchWrongOutputs(t *testing.T) {
	in := makeInputs(8, 8, 4, 3)
	src := in.sources[0]
	ref := in.bfsRef[src]
	far := distgraph.Vertex(0)
	for v, l := range ref {
		if l > ref[far] && l < 1<<60 {
			far = distgraph.Vertex(v)
		}
	}
	bad := func(v distgraph.Vertex) int64 {
		if v == far {
			return ref[v] + 1
		}
		return ref[v]
	}
	if err := checkPath("bfs", bad, ref); err == nil {
		t.Error("checkPath accepted a wrong level")
	}
	if err := checkPath("bfs", func(v distgraph.Vertex) int64 { return ref[v] }, ref); err != nil {
		t.Errorf("checkPath rejected the reference itself: %v", err)
	}
	if err := in.checkCC(func(v distgraph.Vertex) int64 { return int64(v) }); err == nil {
		t.Error("checkCC accepted singleton components")
	}
	pr := in.pagerankRef(10)
	fixed := func(v distgraph.Vertex) int64 { return int64(pr[v] * float64(algorithms.PRScale)) }
	if err := in.checkPageRank(fixed, 10); err != nil {
		t.Errorf("checkPageRank rejected the reference itself: %v", err)
	}
	if err := in.checkPageRank(fixed, 3); err == nil {
		t.Error("checkPageRank accepted ranks after the wrong round count")
	}
}
