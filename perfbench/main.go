// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload in one process on a simulated machine of 2 ranks × 1 handler
// thread, prints every metric by name with its unit and sample count, checks
// every output against a sequential reference, and ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads:
//
//	kernel-chan  RMAT scale 12, edge factor 8, weights 1-100, symmetrized,
//	             block distribution; seeded rounds of 4 BFS, 4 SSSP (fixed
//	             point), 2 CC and 1 PageRank (push) runs inside one
//	             Universe.Run on the in-process chan transport.
//	kernel-unix  the same inputs and sequence over the Unix-socket transport
//	             at its default options, with the wire codec.
//	query-mix    one resident query.Service (default options) over RMAT
//	             scale 10; a closed loop of 8 callers, BFS:SSSP 1:1.
//
// The graph is fixed per workload; the seed draws the sources (from the
// largest component), the kernel order and the request stream.
//
// Untraced runs (-trace 0) print the end-to-end metrics. A traced run
// (-trace 1) measures half its time untraced and half traced, keeps spans in
// memory, derives the per-layer metrics from them and from counter
// snapshots taken at the same boundaries, and writes the spans to
// .bench_build/traces when it ends.
//
// Run it through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload kernel-chan --seed 1 --seconds 30 --trace 0
//
// Its own tests run with `go test` inside perfbench/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// config is one invocation's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// setups is the number of program set-ups per run; setup_s is their median.
const setups = 21

// traceDir is where a traced run writes its spans, under the build directory
// run.sh keeps out of version control.
var traceDir = filepath.Join(".bench_build", "traces")

// outcome is one workload run's result.
type outcome struct {
	attempted, failed int64
	fails             []string
	metrics           map[string]float64
	lines             []string // human-readable report, printed before the JSON
}

func (o *outcome) printf(format string, args ...any) {
	o.lines = append(o.lines, fmt.Sprintf(format, args...))
}

func (o *outcome) fail(n int64, msgs []string) {
	o.failed += n
	o.fails = append(o.fails, msgs...)
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "kernel-chan, kernel-unix or query-mix")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: graph, sources and request order")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measured time per run")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	// A hung program must still end the run: fail it, without a result
	// line, well inside the three minutes a run may take.
	limit := time.Duration(cfg.seconds*float64(time.Second)) + 2*time.Minute
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: no result after %v; giving up\n", limit)
		os.Exit(1)
	})

	fmt.Printf("# perfbench %s: go=%s GOMAXPROCS=%d nproc=%d seed=%d seconds=%g trace=%v ranks=%d threads=%d\n",
		cfg.workload, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cfg.seed, cfg.seconds, cfg.trace, ranks, threads)
	o, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, l := range o.lines {
		fmt.Println(l)
	}
	for _, f := range o.fails {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL", f)
	}
	out, err := report(cfg, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(out)
	if o.failed > 0 {
		os.Exit(1)
	}
}

// run dispatches one workload.
func run(cfg config) (*outcome, error) {
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("need -seconds > 0")
	}
	var o *outcome
	var tr *tracer
	var err error
	switch cfg.workload {
	case "kernel-chan", "kernel-unix":
		o, tr, err = runKernels(cfg, cfg.workload == "kernel-unix")
	case "query-mix":
		o, tr, err = runQueryMix(cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q (want kernel-chan, kernel-unix or query-mix)", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		o.printf("spans: %d written to %s", len(tr.spans), path)
	}
	fail := ratio(float64(o.failed), float64(o.attempted))
	o.printf("fail_frac = %.6g (%d failed of %d attempted)", fail, o.failed, o.attempted)
	return o, nil
}

// report formats the final JSON line: the end-to-end metrics for an untraced
// run, the per-layer metrics for a traced one.
func report(cfg config, o *outcome) (string, error) {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		metrics[d.name] = value{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.failed == 0 && o.attempted > 0, o.attempted, o.failed, metrics})
	return string(b), err
}

// printMetrics appends one "name = value unit" line per metric of defs.
func (o *outcome) printMetrics(defs []metricDef, notes map[string]string) {
	for _, d := range defs {
		line := fmt.Sprintf("%-34s = %.6g %s", d.name, o.metrics[d.name], d.unit)
		if n := notes[d.name]; n != "" {
			line += "  (" + n + ")"
		}
		o.lines = append(o.lines, line)
	}
}

// median of int64 nanosecond samples, in the given unit.
func medianOf(ns []int64, unit time.Duration) float64 {
	return quantile(msOf(ns), 0.5) * 1e6 / float64(unit)
}

// meanInts returns the mean of xs (0 for none).
func meanInts(xs []int) float64 {
	s := 0
	for _, x := range xs {
		s += x
	}
	return ratio(float64(s), float64(len(xs)))
}
