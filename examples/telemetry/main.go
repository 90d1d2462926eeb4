// Telemetry: run BFS with the live telemetry plane on — per-phase kernel
// timers, a counter sampler, and an OpenMetrics /metrics endpoint served
// while the run is in flight.
//
//	go run ./examples/telemetry
//
// A multi-process fleet serves the same families per worker process:
// declpat-launch -metrics ADDR.
//
// With -hold the process keeps serving /metrics after the run finishes, so
// a scraper (curl, Prometheus) can collect the final state:
//
//	go run ./examples/telemetry -hold 30s &
//	curl http://127.0.0.1:9140/metrics
package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"declpat"
)

func main() {
	listen := "127.0.0.1:9140"
	scale := 10
	hold := time.Duration(0)
	args := os.Args[1:]
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "-listen":
			i++
			listen = args[i]
		case "-hold":
			i++
			d, err := time.ParseDuration(args[i])
			if err != nil {
				fmt.Fprintln(os.Stderr, "telemetry: bad -hold:", err)
				os.Exit(2)
			}
			hold = d
		default:
			fmt.Fprintf(os.Stderr, "telemetry: unknown flag %q (want -listen ADDR, -hold DUR)\n", args[i])
			os.Exit(2)
		}
	}

	const ranks = 4
	u := declpat.New(ranks, declpat.WithThreads(2), declpat.WithTiming())

	n, edges := declpat.RMAT(scale, 8, declpat.WeightSpec{}, 42)
	dist := declpat.NewBlockDist(n, ranks)
	g := declpat.BuildGraph(dist, edges, declpat.GraphOptions{})
	eng := declpat.NewEngine(u, g, declpat.NewLockMap(dist, 1), declpat.DefaultPlanOptions())
	bfs := declpat.NewBFS(eng)

	// The /metrics endpoint serves the live universe for the whole run.
	srv, err := declpat.NewDebugServer(listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "telemetry:", err)
		os.Exit(1)
	}
	defer srv.Close()
	srv.HandleMetrics(u.WriteOpenMetrics)
	fmt.Printf("serving http://%s/metrics (pprof under /debug/pprof/)\n", srv.Addr())

	// A sampler ticking during the run turns the counters into rates.
	sampler := declpat.NewSampler(256, u.CounterSeries)
	sampler.Start(50 * time.Millisecond)

	if err := u.Run(func(r *declpat.Rank) { bfs.Run(r, 0) }); err != nil {
		fmt.Fprintln(os.Stderr, "telemetry: run failed:", err)
		os.Exit(1)
	}
	sampler.Stop()
	sampler.Tick() // final sample: the completed run's totals

	m := u.Metrics()
	fmt.Printf("\nBFS over %d vertices done — %d messages, transport %s\n",
		n, m.Counters.MsgsSent, m.Transport)
	fmt.Printf("sampler: %d ticks, peak msgs_sent rate %.0f/s\n",
		sampler.Len(), sampler.Rate("msgs_sent"))

	fmt.Println("\nphase totals:")
	for _, name := range sortedPhaseNames(m.Phases) {
		h := m.Phases[name]
		fmt.Printf("  %-10s %6d spans  %12s total\n",
			name, h.Count, time.Duration(h.Sum))
	}

	if hold > 0 {
		fmt.Printf("\nholding /metrics for %s — scrape me\n", hold)
		time.Sleep(hold)
	}
}

func sortedPhaseNames(phases map[string]declpat.HistSnapshot) []string {
	names := make([]string, 0, len(phases))
	for n := range phases {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
