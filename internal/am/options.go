package am

import (
	"time"

	"declpat/internal/obs"
)

// Option configures a Universe at construction. Options are applied in order
// over the defaults, so later options win; each knob is documented on its
// With* function:
//
//	u := am.New(4, am.WithThreads(2), am.WithFaultPlan(&am.FaultPlan{Drop: 0.05}))
type Option func(*config)

// WithThreads sets the number of message-handler threads per rank. 0 (the
// default) is allowed: handlers then run only when a rank polls (Flush,
// TryFinish, or end-of-epoch progress), which gives deterministic
// single-threaded execution useful in tests.
func WithThreads(n int) Option { return func(c *config) { c.ThreadsPerRank = n } }

// WithCoalesce sets the default number of messages buffered per (type,
// destination) before an envelope is shipped. 1 disables coalescing; 0
// selects the default (64).
func WithCoalesce(n int) Option { return func(c *config) { c.CoalesceSize = n } }

// WithDetector selects the termination-detection protocol (default
// DetectorAtomic).
func WithDetector(d DetectorKind) Option { return func(c *config) { c.Detector = d } }

// WithFaultPlan switches the transport into reliable mode (sequence numbers,
// acks, dedup, retransmit — see fault.go and reliable.go) and injects the
// plan's faults. A zero-valued plan injects nothing but still runs the full
// protocol. Out-of-range Crashes/DeadLinks ranks panic in New.
func WithFaultPlan(fp *FaultPlan) Option { return func(c *config) { c.FaultPlan = fp } }

// WithRecovery enables epoch-granular checkpoint/restart (see recovery.go):
// state registered via RegisterCheckpointer is snapshotted at every epoch
// boundary, and a rank fault (injected crash, contained handler panic, dead
// link) aborts the damaged epoch, rolls every rank back to the checkpoint,
// restarts the dead rank, and replays. Without it a rank fault makes
// Universe.Run return an error.
func WithRecovery() Option { return func(c *config) { c.Recovery = true } }

// WithMaxRecoveries bounds recovery attempts per epoch; a fault that persists
// past the budget (e.g. a deterministic handler panic that recurs on every
// replay) fails the run. 0 selects the default (8).
func WithMaxRecoveries(n int) Option { return func(c *config) { c.MaxRecoveries = n } }

// WithTraceCapacity enables event tracing with per-rank rings totalling n
// events (0, the default, disables tracing). Traced events carry monotonic
// timestamps; epoch and delivery events become spans.
func WithTraceCapacity(n int) Option { return func(c *config) { c.TraceCapacity = n } }

// WithTraceRingSize, when n > 0, sets each rank's trace ring to exactly n
// events, overriding the WithTraceCapacity split (and enabling tracing by
// itself). Without it each rank gets TraceCapacity/Ranks events (minimum 1).
// Use it to bound memory on lineage-heavy runs: a full ring overwrites its
// oldest events, which the DAG reconstructor reports as orphaned parents
// rather than failing. Negative values, or values above 2^26 events per
// rank, are configuration errors and panic in New.
func WithTraceRingSize(n int) Option { return func(c *config) { c.TraceRingSize = n } }

// WithLineage sets the causal-lineage mode (see LineageMode). The default,
// LineageAuto, turns lineage on exactly when tracing is enabled.
func WithLineage(m LineageMode) Option { return func(c *config) { c.Lineage = m } }

// WithTiming enables clock-based latency histograms: handler latency per
// message type, (in reliable mode) ack round-trip time, and the per-rank
// per-phase epoch timers (phase.go). Off by default because it adds two
// monotonic clock reads per delivered envelope (and per phase scope) to the
// hot path.
func WithTiming() Option { return func(c *config) { c.Timing = true } }

// WithUnshardedStats collapses the per-rank metric shards into a single
// shard, reproducing the old globally-shared-atomics layout where every rank
// contends on the same cache lines. It exists so the cost of that contention
// can be measured (experiment E17); leave it off.
func WithUnshardedStats() Option { return func(c *config) { c.UnshardedStats = true } }

// WithWatchdog arms the stuck-epoch watchdog: when no substrate progress
// (deliveries, flushes, detector transitions) is observed for d, the run
// fails with a diagnostic dump of the detector counters and trace rings
// instead of hanging. 0 (the default) disables it. Set it well above the
// longest legitimate gap between deliveries (long-running handler bodies
// included), and leave it off for latency-insensitive batch work guarded by
// an external test timeout.
func WithWatchdog(d time.Duration) Option { return func(c *config) { c.Watchdog = d } }

// WithTransport selects the message transport backend (see transport.go):
// ChanTransport (the in-process zero-copy default) or SockTransport
// (length-prefixed CRC-sealed frames over TCP or Unix-domain sockets, with
// handshakes, heartbeats, and automatic reconnect). A backend that can lose
// frames (the socket backend) forces reliable mode: without WithFaultPlan a
// zero-valued plan (full protocol, no injected faults) is synthesized. A
// transport value is single-use — construct one per universe.
func WithTransport(t Transport) Option { return func(c *config) { c.Transport = t } }

// WithControlPlane runs the universe as one worker process of a
// multi-process SPMD fleet (see controlplane.go): it hosts global ranks
// [mp.Lo, mp.Hi) and carries barriers, all-reduces, termination-detector
// waves and fault/recovery coordination over mp.Plane instead of
// process-local shared memory. Requires a socket transport for the data
// plane, forces the four-counter detector (the atomic detector reads
// process-local counters), and is mutually exclusive with WithRecovery —
// faults abort the fleet and the launcher drives checkpoint/restart across
// processes instead.
func WithControlPlane(mp MPConfig) Option { return func(c *config) { c.MP = &mp } }

// WithFlightRecorder attaches an always-on black-box flight recorder (see
// internal/obs and flight.go): landmark events — epoch boundaries, phase
// transitions, faults, recovery, control-plane trouble — are mirrored into
// its bounded rings even when full tracing is off, and the substrate
// persists it at epoch commits and on every fault path so a killed process
// leaves a postmortem dump at most one epoch stale.
func WithFlightRecorder(f *obs.FlightRecorder) Option {
	return func(c *config) { c.Flight = f }
}
