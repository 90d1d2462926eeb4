// Socialcc: connected components of a scale-free "social network" (RMAT)
// using the paper's §II-B parallel-search algorithm — concurrent searches
// claim territory, collisions are recorded at the component roots, and
// pointer jumping resolves the final labels. Prints the component-size
// histogram (one giant component plus a tail of small ones, the signature of
// scale-free graphs).
package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"declpat"
	"declpat/internal/algorithms"
)

func main() {
	const scale, edgeFactor, ranks = 13, 4, 4
	n, edges := declpat.RMAT(scale, edgeFactor, declpat.WeightSpec{}, 2026)
	fmt.Printf("social graph: %d users, %d friendships (RMAT scale %d)\n", n, len(edges), scale)

	u := declpat.New(ranks, declpat.WithThreads(2))
	dist := declpat.NewBlockDist(n, ranks)
	g := declpat.BuildGraph(dist, edges, declpat.GraphOptions{Symmetrize: true})
	lm := declpat.NewLockMap(dist, 1)
	eng := declpat.NewEngine(u, g, lm, declpat.DefaultPlanOptions())

	cc := algorithms.NewCC(eng, lm)
	cc.FlushEvery = 8 // start a few searches per flush

	start := time.Now()
	if err := u.Run(func(r *declpat.Rank) { cc.Run(r) }); err != nil {
		fmt.Fprintln(os.Stderr, "socialcc: run failed:", err)
		os.Exit(1)
	}
	fmt.Printf("computed in %s: %d searches, %d resolution rounds, %d messages\n",
		time.Since(start).Round(time.Microsecond), cc.SearchesStarted(), cc.JumpRounds, u.Stats.Snapshot().MsgsSent)

	sizes := map[int64]int{}
	for _, label := range cc.Comp.Gather() {
		sizes[label]++
	}
	hist := map[int]int{} // size -> how many components of that size
	var order []int
	for _, sz := range sizes {
		if hist[sz] == 0 {
			order = append(order, sz)
		}
		hist[sz]++
	}
	sort.Sort(sort.Reverse(sort.IntSlice(order)))
	fmt.Printf("\n%d components:\n", len(sizes))
	for i, sz := range order {
		if i >= 8 {
			fmt.Printf("  ... and %d more sizes\n", len(order)-i)
			break
		}
		fmt.Printf("  %7d vertices × %d component(s)\n", sz, hist[sz])
	}
}
