// Centrality: approximate betweenness centrality of a small-world network
// with Brandes' algorithm — a staged pattern computation (level-synchronous
// forward BFS epochs, then backward dependency-accumulation epochs over
// in-edges) driven by imperative support code, exactly the declarative ×
// imperative split the paper advocates.
package main

import (
	"fmt"
	"os"
	"sort"

	"declpat"
)

func main() {
	const n, ranks = 400, 4
	// A small-world network: a ring with shortcuts; shortcut endpoints
	// become high-betweenness hubs.
	edges := declpat.SmallWorld(n, 4, 0.05, declpat.WeightSpec{}, 12)
	s := declpat.StatsOf(n, edges)
	fmt.Printf("network: %d nodes, %d links, avg degree %.1f, max out-degree %d\n\n",
		s.Vertices, s.Edges, s.AvgDeg, s.MaxOutDeg)

	u := declpat.New(ranks, declpat.WithThreads(2))
	dist := declpat.NewBlockDist(n, ranks)
	g := declpat.BuildGraphParallel(dist, edges, declpat.GraphOptions{Symmetrize: true, Bidirectional: true})
	eng := declpat.NewEngine(u, g, declpat.NewLockMap(dist, 1), declpat.DefaultPlanOptions())
	bc := declpat.NewBetweenness(eng)

	// Approximate: sample every 8th vertex as a source.
	var sources []declpat.Vertex
	for v := declpat.Vertex(0); int(v) < n; v += 8 {
		sources = append(sources, v)
	}
	if err := u.Run(func(r *declpat.Rank) { bc.Run(r, sources) }); err != nil {
		fmt.Fprintln(os.Stderr, "centrality: run failed:", err)
		os.Exit(1)
	}

	type vb struct {
		v  declpat.Vertex
		bc float64
	}
	var ranked []vb
	for v, raw := range bc.BC.Gather() {
		ranked = append(ranked, vb{declpat.Vertex(v), float64(raw) / float64(1<<20)})
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].bc > ranked[j].bc })
	fmt.Printf("most central nodes (%d BFS sources sampled):\n", len(sources))
	for _, r := range ranked[:10] {
		fmt.Printf("  node %4d: betweenness %9.1f\n", r.v, r.bc)
	}
	fmt.Printf("\nmessages: %d across %d epochs\n", u.Stats.Snapshot().MsgsSent, u.Stats.Snapshot().Epochs)
}
