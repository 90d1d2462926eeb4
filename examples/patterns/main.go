// Patterns: author a custom pattern from scratch — a "influence tracking"
// computation that records, for every user, the set of higher-influence
// neighbours (the paper's preds[v].insert(u) modification form) and caps
// runaway influence values with an if/else-if chain. Shows the pattern DSL,
// plan introspection, and the `once` strategy.
package main

import (
	"fmt"
	"os"

	"declpat"
)

func main() {
	const n, ranks = 64, 2
	// Ring plus a few long-range "influencer" links.
	_, edges := declpat.Torus2D(8, 8, declpat.WeightSpec{}, 5)

	u := declpat.New(ranks, declpat.WithThreads(1))
	dist := declpat.NewBlockDist(n, ranks)
	g := declpat.BuildGraph(dist, edges, declpat.GraphOptions{Symmetrize: true})
	lm := declpat.NewLockMap(dist, 1)
	eng := declpat.NewEngine(u, g, lm, declpat.DefaultPlanOptions())

	// The pattern: two properties and two actions.
	p := declpat.NewPattern("influence")
	inf := p.VertexProp("inf")            // influence score
	mentors := p.VertexSetProp("mentors") // higher-influence neighbours

	// track(v): for each neighbour u, if v is strictly more influential,
	// u records v as a mentor.
	track := p.Action("track", declpat.GenAdj())
	track.If(declpat.Gt(inf.At(declpat.AtV()), inf.At(declpat.AtU()))).
		Insert(mentors.At(declpat.AtU()), declpat.Vtx(declpat.AtV()))

	// cap(v): an if/else-if chain clamping influence into bands.
	cap_ := p.Action("cap", declpat.GenNone())
	iv := inf.At(declpat.AtV())
	cap_.If(declpat.Gt(iv, declpat.C(100))).Set(inf.At(declpat.AtV()), declpat.C(100))
	cap_.Elif(declpat.Lt(iv, declpat.C(0))).Set(inf.At(declpat.AtV()), declpat.C(0))

	infMap := declpat.NewVertexWordMap(dist, 0)
	mentorMap := declpat.NewVertexSetMap(dist, lm)
	bound, err := eng.Bind(p, declpat.Bindings{"inf": infMap, "mentors": mentorMap})
	if err != nil {
		panic(err)
	}
	trackA, capA := bound.Action("track"), bound.Action("cap")

	fmt.Println("compiled plans:")
	fmt.Print(trackA.PlanInfo())
	fmt.Print(capA.PlanInfo())

	if err := u.Run(func(r *declpat.Rank) {
		// Seed influence scores: v² mod 251 (some out of band).
		infMap.ForEachLocal(r.ID(), func(v declpat.Vertex, _ int64) {
			infMap.Set(r.ID(), v, int64(v*v%251)-20)
		})
		r.Barrier()
		locals := declpat.LocalVertices(g, r)
		// Clamp bands with `once` until stable, then track mentors.
		for declpat.Once(r, capA, locals) {
		}
		r.Epoch(func(ep *declpat.EpochHandle) {
			for _, v := range locals {
				trackA.Invoke(r, v)
			}
		})
	}); err != nil {
		fmt.Fprintln(os.Stderr, "patterns: run failed:", err)
		os.Exit(1)
	}

	fmt.Println("\nmentor sets of the first few users:")
	for v := declpat.Vertex(0); v < 6; v++ {
		own := g.Owner(v)
		fmt.Printf("  user %d (influence %3d): mentors %v\n",
			v, infMap.Get(own, v), mentorMap.Members(own, v))
	}
	fmt.Printf("\nmodifications applied: %d set-inserts, %d clamps\n",
		trackA.Stats.ModsChanged.Load(), capA.Stats.ModsChanged.Load())
}
