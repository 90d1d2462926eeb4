// Pagerank: ranks the users of a scale-free network with the push pattern
// (one remote atomic add per edge) and cross-checks against the pull pattern
// over in-edges (a two-hop gather per edge, enabled by the bidirectional
// storage model). Prints the top-ranked vertices and the push/pull message
// asymmetry.
package main

import (
	"fmt"
	"os"
	"sort"

	"declpat"
)

func run(n int, edges []declpat.Edge, mode declpat.PageRankMode) (*declpat.PageRank, *declpat.Universe) {
	const ranks = 4
	gopts := declpat.GraphOptions{}
	if mode == declpat.PageRankPull {
		gopts.Bidirectional = true
	}
	u := declpat.New(ranks, declpat.WithThreads(2))
	dist := declpat.NewBlockDist(n, ranks)
	g := declpat.BuildGraph(dist, edges, gopts)
	eng := declpat.NewEngine(u, g, declpat.NewLockMap(dist, 1), declpat.DefaultPlanOptions())
	pr := declpat.NewPageRank(eng, mode)
	pr.MaxIters = 30
	if err := u.Run(func(r *declpat.Rank) { pr.Run(r) }); err != nil {
		fmt.Fprintln(os.Stderr, "pagerank: run failed:", err)
		os.Exit(1)
	}
	return pr, u
}

func main() {
	n, edges := declpat.RMAT(12, 12, declpat.WeightSpec{}, 99)
	fmt.Printf("web graph: %d pages, %d links\n\n", n, len(edges))

	push, pushU := run(n, edges, declpat.PageRankPush)
	pull, pullU := run(n, edges, declpat.PageRankPull)

	fmt.Printf("%-18s %12s %12s\n", "", "push", "pull")
	fmt.Printf("%-18s %12d %12d\n", "messages", pushU.Stats.Snapshot().MsgsSent, pullU.Stats.Snapshot().MsgsSent)
	fmt.Printf("%-18s %12d %12d\n", "rounds", push.Rounds, pull.Rounds)

	ranks := push.Rank.Gather()
	type vr struct {
		v declpat.Vertex
		r int64
	}
	var top []vr
	for v, r := range ranks {
		top = append(top, vr{declpat.Vertex(v), r})
	}
	sort.Slice(top, func(i, j int) bool { return top[i].r > top[j].r })
	fmt.Println("\ntop pages (rank as fraction of total):")
	for _, t := range top[:8] {
		fmt.Printf("  page %5d: %.5f\n", t.v, float64(t.r)/float64(declpat.PRScaleConst))
	}

	// Push and pull must agree exactly (same fixed-point arithmetic).
	pullRanks := pull.Rank.Gather()
	for v := range ranks {
		if ranks[v] != pullRanks[v] {
			fmt.Printf("MISMATCH at %d: push=%d pull=%d\n", v, ranks[v], pullRanks[v])
			return
		}
	}
	fmt.Println("\npush and pull agree exactly on every vertex")
}
