// Roadnet: single-source shortest paths over a torus "road network" —
// the workload where Δ-stepping's bucket structure matters, since the graph
// has a large diameter and uniform weights. Sweeps Δ and compares against
// the fixed-point strategy, printing the work profile of each run (the
// comparison of the paper's Fig. 1).
package main

import (
	"fmt"
	"os"
	"time"

	"declpat"
)

func run(n int, edges []declpat.Edge, configure func(*declpat.Universe, *declpat.SSSP)) (dur time.Duration, attempts, succeeded int64, epochs int) {
	const ranks = 4
	u := declpat.New(ranks, declpat.WithThreads(2))
	dist := declpat.NewBlockDist(n, ranks)
	g := declpat.BuildGraph(dist, edges, declpat.GraphOptions{})
	eng := declpat.NewEngine(u, g, declpat.NewLockMap(dist, 1), declpat.DefaultPlanOptions())
	s := declpat.NewSSSP(eng)
	configure(u, s)
	start := time.Now()
	if err := u.Run(func(r *declpat.Rank) { s.Run(r, 0) }); err != nil {
		fmt.Fprintln(os.Stderr, "roadnet: run failed:", err)
		os.Exit(1)
	}
	dur = time.Since(start)
	attempts = s.Relax.Stats.TestsTrue.Load() + s.Relax.Stats.TestsFalse.Load()
	succeeded = s.Relax.Stats.ModsChanged.Load()
	return dur, attempts, succeeded, s.BucketEpochs()
}

func main() {
	// 96×96 torus, weights 1..10: diameter ~96, so label-correcting
	// strategies differ sharply in wasted relaxations.
	n, edges := declpat.Torus2D(96, 96, declpat.WeightSpec{Min: 1, Max: 10}, 7)
	fmt.Printf("road network: %d intersections, %d road segments\n\n", n, len(edges))
	fmt.Printf("%-16s %-8s %-10s %-12s %-12s %s\n", "strategy", "delta", "epochs", "relaxations", "successful", "time")

	d, a, s, _ := run(n, edges, func(u *declpat.Universe, ss *declpat.SSSP) { ss.UseFixedPoint() })
	fmt.Printf("%-16s %-8s %-10d %-12d %-12d %s\n", "fixed_point", "-", 1, a, s, d.Round(time.Microsecond))

	for _, delta := range []int64{2, 8, 32, 128, 1024} {
		d, a, s, ep := run(n, edges, func(u *declpat.Universe, ss *declpat.SSSP) { ss.UseDelta(u, delta) })
		fmt.Printf("%-16s %-8d %-10d %-12d %-12d %s\n", "delta", delta, ep, a, s, d.Round(time.Microsecond))
	}
	d, a, s, ep := run(n, edges, func(u *declpat.Universe, ss *declpat.SSSP) { ss.UseDeltaDistributed(u, 32, 2) })
	fmt.Printf("%-16s %-8d %-10d %-12d %-12d %s\n", "delta-dist", 32, ep, a, s, d.Round(time.Microsecond))
}
