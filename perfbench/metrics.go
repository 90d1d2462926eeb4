package main

import (
	"fmt"
	"runtime"

	"declpat/internal/am"
)

// metricDef names one reported metric and its unit. BENCHMARK.json lists the
// same names; a test keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the program sees, printed by untraced
// runs. Every workload reports each one: a kernel run and a query are both
// an "op", and bfs_ms / sssp_ms are the time a caller waits for one BFS or
// SSSP answer on either surface. The tail is p95 because a kernel run of 30
// seconds completes about 300 ops, too few for a p99 with ten samples
// beyond it; query-mix also prints its p99 in the report.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"setup_heap_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"bfs_ms", "ms"},
	{"sssp_ms", "ms"},
	{"op_ms_p95", "ms"},
	{"alloc_mb_per_op", "MB"},
}

// perLayer are the traced run's metrics, one group per module. A metric a
// workload cannot observe through the module's public API reads 0.
var perLayer = []metricDef{
	{"distgraph.build_ms", "ms"},

	{"pattern.bind_ms", "ms"},
	{"pattern.tests_per_op", "count"},
	{"pattern.useful_frac", "ratio"},

	{"algorithms.pr_rounds", "count"},
	{"algorithms.bfs_call_ms", "ms"},
	{"algorithms.sssp_call_ms", "ms"},
	{"algorithms.cc_call_ms", "ms"},
	{"algorithms.pagerank_call_ms", "ms"},

	{"am.start_ms", "ms"},
	{"am.stop_ms", "ms"},

	{"am.msgs_per_op", "count"},
	{"am.envelopes_per_op", "count"},
	{"am.msgs_per_envelope", "count"},
	{"am.bytes_per_msg", "B"},
	{"am.handlers_per_op", "count"},
	{"am.flushes_per_op", "count"},
	{"am.combined_frac", "ratio"},
	{"am.suppressed_frac", "ratio"},

	{"am.epochs_per_op", "count"},
	{"am.td_waves_per_epoch", "count"},
	{"am.ctrl_msgs_per_op", "count"},
	{"am.rank_skew_ms", "ms"},
	{"am.barrier_wait_ms", "ms"},

	{"am.wire_bytes_per_msg", "B"},
	{"am.retransmits_per_op", "count"},
	{"am.retransmit_useful_frac", "ratio"},
	{"am.acks_per_envelope", "count"},
	{"am.reconnects", "count"},
	{"am.heartbeat_misses", "count"},
	{"am.frames_requeued", "count"},
	{"am.decode_errors", "count"},
	{"am.corruptions", "count"},

	{"query.submit_us_p50", "us"},
	{"query.queue_wait_ms_p50", "ms"},
	{"query.queue_wait_ms_p99", "ms"},
	{"query.service_ms_p50", "ms"},
	{"query.service_ms_p99", "ms"},
	{"query.notify_ms_p50", "ms"},
	{"query.batch_width_mean", "count"},
	{"query.epochs_per_query", "count"},
	{"query.rejected", "count"},
	{"query.expired", "count"},

	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.mallocs_per_op", "count"},

	{"partition.setup_other_ms", "ms"},
	{"partition.kernel_barrier_exit_ms", "ms"},
	{"partition.kernel_other_ms", "ms"},
	{"partition.query_other_us", "us"},

	{"bench.trace_overhead_frac", "ratio"},
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// substrateMetrics derives the am layer's per-op counters from a counter
// delta over ops operations.
func substrateMetrics(m map[string]float64, d am.Snapshot, ops int) {
	n := float64(ops)
	msgs := float64(d.MsgsSent)
	env := float64(d.Envelopes)
	m["am.msgs_per_op"] = ratio(msgs, n)
	m["am.envelopes_per_op"] = ratio(env, n)
	m["am.msgs_per_envelope"] = ratio(msgs, env)
	m["am.bytes_per_msg"] = ratio(float64(d.BytesSent), msgs)
	m["am.handlers_per_op"] = ratio(float64(d.HandlersRun), n)
	m["am.flushes_per_op"] = ratio(float64(d.Flushes), n)
	m["am.combined_frac"] = ratio(float64(d.MsgsCombined), msgs)
	m["am.suppressed_frac"] = ratio(float64(d.MsgsSuppressed), msgs)
	m["am.epochs_per_op"] = ratio(float64(d.Epochs), n)
	m["am.td_waves_per_epoch"] = ratio(float64(d.TDWaves), float64(d.Epochs))
	m["am.ctrl_msgs_per_op"] = ratio(float64(d.CtrlMsgs), n)
	m["am.wire_bytes_per_msg"] = ratio(float64(d.WireBytes), msgs)
	m["am.retransmits_per_op"] = ratio(float64(d.Retransmits), n)
	if d.Retransmits > 0 {
		m["am.retransmit_useful_frac"] = 1 - float64(d.DupsSuppressed)/float64(d.Retransmits)
	}
	m["am.acks_per_envelope"] = ratio(float64(d.AckMsgs), env)
	m["am.reconnects"] = float64(d.Reconnects)
	m["am.heartbeat_misses"] = float64(d.HeartbeatMisses)
	m["am.frames_requeued"] = float64(d.FramesRequeued)
	m["am.decode_errors"] = float64(d.DecodeErrors)
	m["am.corruptions"] = float64(d.CorruptionsDetected)
}

// memDelta accumulates the Go runtime's costs between MemStats readings.
type memDelta struct{ alloc, mallocs, gcs, pauseNs uint64 }

func (d *memDelta) add(a, b *runtime.MemStats) {
	d.alloc += b.TotalAlloc - a.TotalAlloc
	d.mallocs += b.Mallocs - a.Mallocs
	d.gcs += uint64(b.NumGC - a.NumGC)
	d.pauseNs += b.PauseTotalNs - a.PauseTotalNs
}

// runtimeMetrics derives the Go runtime's per-op costs (GC cycles, GC pause
// time, heap allocations).
func runtimeMetrics(m map[string]float64, d memDelta, ops int) {
	n := float64(ops)
	m["runtime.gc_cycles_per_op"] = ratio(float64(d.gcs), n)
	m["runtime.gc_pause_ms"] = ratio(float64(d.pauseNs)/1e6, n)
	m["runtime.mallocs_per_op"] = ratio(float64(d.mallocs), n)
}

// addSnapshot returns a + b, counter by counter, as a - (0 - b).
func addSnapshot(a, b am.Snapshot) am.Snapshot {
	return a.Sub(am.Snapshot{}.Sub(b))
}

// linkFailures formats the socket link-failure counters of a counter delta.
func linkFailures(d am.Snapshot) string {
	return fmt.Sprintf("reconnects=%d heartbeat_misses=%d frames_requeued=%d frames_dropped=%d link_deaths=%d decode_errors=%d corruptions=%d",
		d.Reconnects, d.HeartbeatMisses, d.FramesRequeued, d.FramesDropped, d.LinkDeaths, d.DecodeErrors, d.CorruptionsDetected)
}

// liveHeap returns HeapAlloc after forced collections. The second cycle
// frees what the first only moved to sync.Pool victim caches.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
