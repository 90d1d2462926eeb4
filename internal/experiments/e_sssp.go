package experiments

import (
	"fmt"

	"declpat/internal/algorithms"
	"declpat/internal/am"
	"declpat/internal/harness"
	"declpat/internal/pattern"
)

// E1Strategies reproduces Fig. 1's comparison: the fixed-point SSSP performs
// more (wasted) relaxations than Δ-stepping, whose work profile and epoch
// count vary with Δ; both share the same relax pattern.
func E1Strategies(sc Scale) []*harness.Table {
	n, edges := workload(sc)
	t := harness.NewTable("E1: SSSP strategies (RMAT scale "+itoa(sc.RMATScale)+", "+itoa(len(edges))+" edges)",
		"strategy", "delta", "bucket-epochs", "relax-attempts", "relax-success", "messages", "time", "wrong")
	run := func(name string, delta int64, mk func(u *am.Universe, s *algorithms.SSSP)) {
		e := newEnv(n, edges, defaultGOpts(), pattern.DefaultPlanOptions(), 4, am.WithThreads(2))
		s := algorithms.NewSSSP(e.eng)
		mk(e.u, s)
		var dur string
		d := harness.Time(func() {
			mustRun(e.u, func(r *am.Rank) { s.Run(r, 0) })
		})
		dur = d.String()
		attempts := s.Relax.Stats.TestsTrue.Load() + s.Relax.Stats.TestsFalse.Load()
		deltaStr := "-"
		if delta > 0 {
			deltaStr = fmt.Sprint(delta)
		}
		t.Add(row([]any{name, deltaStr, s.BucketEpochs(), attempts, s.Relax.Stats.ModsChanged.Load()},
			statCells(e.u, "messages"), dur, checkSSSP(s.Dist.Gather(), n, edges, 0))...)
	}
	run("fixed_point", 0, func(u *am.Universe, s *algorithms.SSSP) { s.UseFixedPoint() })
	for _, delta := range []int64{1, 8, 32, 128, 512, 1 << 40} {
		run("delta", delta, func(u *am.Universe, s *algorithms.SSSP) { s.UseDelta(u, delta) })
	}
	run("delta-distributed", 32, func(u *am.Universe, s *algorithms.SSSP) { s.UseDeltaDistributed(u, 32, 2) })
	return []*harness.Table{t}
}

// E5Coalescing sweeps the coalescing factor (§IV: "coalescing greatly
// improves performance when large amounts of messages are sent").
func E5Coalescing(sc Scale) []*harness.Table {
	n, edges := workload(sc)
	t := harness.NewTable("E5: coalescing factor (fixed-point SSSP)",
		"coalesce", "messages", "envelopes", "bytes", "time", "wrong")
	for _, cs := range []int{1, 4, 16, 64, 256, 1024} {
		e := newEnv(n, edges, defaultGOpts(), pattern.DefaultPlanOptions(), 4, am.WithThreads(2), am.WithCoalesce(cs))
		s := algorithms.NewSSSP(e.eng)
		d := harness.Time(func() {
			mustRun(e.u, func(r *am.Rank) { s.Run(r, 0) })
		})
		t.Add(row([]any{cs}, statCells(e.u, "messages", "envelopes", "bytes"),
			d, checkSSSP(s.Dist.Gather(), n, edges, 0))...)
	}
	return []*harness.Table{t}
}

// E6Reduction measures the caching/reduction layer (§IV: "caching allows to
// avoid unnecessary message sends ... in algorithms that produce potentially
// large amounts of repetitive work") on the hand-written SSSP.
func E6Reduction(sc Scale) []*harness.Table {
	n, edges := workload(sc)
	t := harness.NewTable("E6: reduction cache (hand-written AM++ SSSP)",
		"cache", "accepted", "suppressed", "handlers", "envelopes", "time", "wrong")
	for _, cached := range []bool{false, true} {
		u := am.New(4, am.WithThreads(2), am.WithCoalesce(256))
		benchTrack(u)
		g := buildGraph(u, n, edges, defaultGOpts())
		h := algorithms.NewHandSSSP(u, g)
		if cached {
			h.WithReductionCache()
		}
		d := harness.Time(func() {
			mustRun(u, func(r *am.Rank) { h.Run(r, 0) })
		})
		name := "off"
		if cached {
			name = "on"
		}
		t.Add(row([]any{name}, statCells(u, "accepted", "suppressed", "handlers", "envelopes"),
			d, checkSSSP(h.Dist.Gather(), n, edges, 0))...)
	}
	return []*harness.Table{t}
}

// E7Scaling sweeps ranks × handler threads (strong scaling shape over the
// simulated machine).
func E7Scaling(sc Scale) []*harness.Table {
	n, edges := workload(sc)
	sssp := harness.NewTable("E7a: strong scaling — fixed-point SSSP",
		"ranks", "threads", "time", "speedup")
	var base float64
	for _, rc := range [][2]int{{1, 1}, {2, 1}, {2, 2}, {4, 1}, {4, 2}, {8, 2}} {
		min, _ := harness.MinMed(3, func() {
			e := newEnv(n, edges, defaultGOpts(), pattern.DefaultPlanOptions(), rc[0], am.WithThreads(rc[1]))
			s := algorithms.NewSSSP(e.eng)
			mustRun(e.u, func(r *am.Rank) { s.Run(r, 0) })
		})
		if base == 0 {
			base = float64(min)
		}
		sssp.Add(rc[0], rc[1], min, harness.Ratio(base, float64(min)))
	}
	cc := harness.NewTable("E7b: strong scaling — CC parallel search",
		"ranks", "threads", "time", "speedup")
	var ccBase float64
	ugopts := defaultGOpts()
	ugopts.Symmetrize = true
	for _, rc := range [][2]int{{1, 1}, {2, 2}, {4, 2}, {8, 2}} {
		min, _ := harness.MinMed(3, func() {
			e := newEnv(n, edges, ugopts, pattern.DefaultPlanOptions(), rc[0], am.WithThreads(rc[1]))
			c := algorithms.NewCC(e.eng, e.lm)
			c.FlushEvery = 64
			mustRun(e.u, func(r *am.Rank) { c.Run(r) })
		})
		if ccBase == 0 {
			ccBase = float64(min)
		}
		cc.Add(rc[0], rc[1], min, harness.Ratio(ccBase, float64(min)))
	}
	return []*harness.Table{sssp, cc}
}

// E8Termination compares the shared-counter detector against the
// four-counter control-message protocol, for plain epochs (fixed point) and
// try_finish-driven distributed Δ-stepping.
func E8Termination(sc Scale) []*harness.Table {
	n, edges := workload(sc)
	t := harness.NewTable("E8: termination detection",
		"workload", "detector", "ctrl-msgs", "td-waves", "time", "wrong")
	for _, det := range []am.DetectorKind{am.DetectorAtomic, am.DetectorFourCounter} {
		e := newEnv(n, edges, defaultGOpts(), pattern.DefaultPlanOptions(), 4, am.WithThreads(2), am.WithDetector(det))
		s := algorithms.NewSSSP(e.eng)
		d := harness.Time(func() {
			mustRun(e.u, func(r *am.Rank) { s.Run(r, 0) })
		})
		t.Add(row([]any{"fixed_point", det.String()}, statCells(e.u, "ctrl-msgs", "td-waves"), d,
			checkSSSP(s.Dist.Gather(), n, edges, 0))...)
	}
	for _, det := range []am.DetectorKind{am.DetectorAtomic, am.DetectorFourCounter} {
		e := newEnv(n, edges, defaultGOpts(), pattern.DefaultPlanOptions(), 4, am.WithThreads(2), am.WithDetector(det))
		s := algorithms.NewSSSP(e.eng)
		s.UseDeltaDistributed(e.u, 64, 2)
		d := harness.Time(func() {
			mustRun(e.u, func(r *am.Rank) { s.Run(r, 0) })
		})
		t.Add(row([]any{"delta-dist(try_finish)", det.String()}, statCells(e.u, "ctrl-msgs", "td-waves"), d,
			checkSSSP(s.Dist.Gather(), n, edges, 0))...)
	}
	return []*harness.Table{t}
}

// E9Abstraction compares pattern-engine SSSP/BFS against the hand-written
// AM++ versions: same results, same message shape, engine dispatch overhead
// on top.
func E9Abstraction(sc Scale) []*harness.Table {
	n, edges := workload(sc)
	t := harness.NewTable("E9: abstraction overhead (pattern engine vs hand-written AM++)",
		"algorithm", "impl", "messages", "handlers", "time", "wrong")
	const ranks, threads = 4, 2

	// SSSP.
	{
		e := newEnv(n, edges, defaultGOpts(), pattern.DefaultPlanOptions(), ranks, am.WithThreads(threads))
		s := algorithms.NewSSSP(e.eng)
		d := harness.Time(func() { mustRun(e.u, func(r *am.Rank) { s.Run(r, 0) }) })
		t.Add(row([]any{"sssp", "pattern"}, statCells(e.u, "messages", "handlers"), d,
			checkSSSP(s.Dist.Gather(), n, edges, 0))...)
	}
	{
		u := am.New(ranks, am.WithThreads(threads))
		benchTrack(u)
		g := buildGraph(u, n, edges, defaultGOpts())
		h := algorithms.NewHandSSSP(u, g)
		d := harness.Time(func() { mustRun(u, func(r *am.Rank) { h.Run(r, 0) }) })
		t.Add(row([]any{"sssp", "hand-written"}, statCells(u, "messages", "handlers"), d,
			checkSSSP(h.Dist.Gather(), n, edges, 0))...)
	}
	// BFS.
	{
		e := newEnv(n, edges, defaultGOpts(), pattern.DefaultPlanOptions(), ranks, am.WithThreads(threads))
		b := algorithms.NewBFS(e.eng)
		d := harness.Time(func() { mustRun(e.u, func(r *am.Rank) { b.Run(r, 0) }) })
		t.Add(row([]any{"bfs", "pattern"}, statCells(e.u, "messages", "handlers"), d, "-")...)
	}
	{
		u := am.New(ranks, am.WithThreads(threads))
		benchTrack(u)
		g := buildGraph(u, n, edges, defaultGOpts())
		h := algorithms.NewHandBFS(u, g)
		d := harness.Time(func() { mustRun(u, func(r *am.Rank) { h.Run(r, 0) }) })
		t.Add(row([]any{"bfs", "hand-written"}, statCells(u, "messages", "handlers"), d, "-")...)
	}
	return []*harness.Table{t}
}
