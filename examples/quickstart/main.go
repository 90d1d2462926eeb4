// Quickstart: declare the paper's SSSP pattern, run it with the fixed_point
// strategy on a small weighted graph across 2 simulated ranks, and print the
// distances together with the compiled message plan (which is the single
// message of the paper's Fig. 6).
package main

import (
	"fmt"
	"os"

	"declpat"
)

func main() {
	// A small weighted digraph:
	//
	//	0 --5--> 1 --1--> 2
	//	 \--3--> 2 --7--> 3 --2--> 0
	edges := []declpat.Edge{
		{Src: 0, Dst: 1, W: 5},
		{Src: 1, Dst: 2, W: 1},
		{Src: 0, Dst: 2, W: 3},
		{Src: 2, Dst: 3, W: 7},
		{Src: 3, Dst: 0, W: 2},
	}
	const n, ranks = 4, 2

	u := declpat.New(ranks, declpat.WithThreads(1))
	dist := declpat.NewBlockDist(n, ranks)
	g := declpat.BuildGraph(dist, edges, declpat.GraphOptions{})
	eng := declpat.NewEngine(u, g, declpat.NewLockMap(dist, 1), declpat.DefaultPlanOptions())

	sssp := declpat.NewSSSP(eng) // binds the Fig. 2 pattern, fixed_point strategy
	if err := u.Run(func(r *declpat.Rank) {
		sssp.Run(r, 0)
	}); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart: run failed:", err)
		os.Exit(1)
	}

	fmt.Println("distances from vertex 0:")
	for v, d := range sssp.Dist.Gather() {
		fmt.Printf("  dist[%d] = %d\n", v, d)
	}
	fmt.Println("\ncompiled plan for the relax action (Fig. 6: one message, atomic min):")
	fmt.Print(sssp.Relax.PlanInfo())
	fmt.Printf("\nmessages sent: %d, handlers run: %d, epochs: %d\n",
		u.Stats.Snapshot().MsgsSent, u.Stats.Snapshot().HandlersRun, u.Stats.Snapshot().Epochs)
}
