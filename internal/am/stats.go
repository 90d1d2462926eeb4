package am

import (
	"reflect"
	"unsafe"

	"declpat/internal/obs"
)

// Snapshot is the counter table of the universe-wide message accounting and
// a plain-value copy of it, convenient for diffing across an experiment
// phase. Each field is one counter: its position is the counter id and its
// metric tag the exported name, so adding a counter takes one field here and
// one id below. Every field must be an int64 (checked at init).
type Snapshot struct {
	// MsgsSent counts user-level messages accepted by Send (after the reduction
	// layer; suppressed messages are in MsgsSuppressed).
	MsgsSent int64 `metric:"msgs_sent"`

	// MsgsSuppressed counts messages absorbed by the caching/reduction layer
	// (combined into an already-buffered message).
	MsgsSuppressed int64 `metric:"msgs_suppressed"`

	// MsgsCombined counts messages that replaced/merged the payload of a
	// buffered message (a combine that changed the buffered value).
	MsgsCombined int64 `metric:"msgs_combined"`

	// Envelopes counts coalesced batches shipped between ranks.
	Envelopes int64 `metric:"envelopes"`

	// BytesSent counts payload bytes (message size × messages, exact).
	BytesSent int64 `metric:"bytes_sent"`

	// WireBytes counts serialized envelope bytes for message types using the gob
	// wire transport (0 for in-memory transport).
	WireBytes int64 `metric:"wire_bytes"`

	// HandlersRun counts individual message handler invocations.
	HandlersRun int64 `metric:"handlers_run"`

	// CtrlMsgs counts termination-detection control messages (four-counter
	// detector only; the atomic detector sends none).
	CtrlMsgs int64 `metric:"ctrl_msgs"`

	// Epochs counts completed epochs.
	Epochs int64 `metric:"epochs"`

	// Flushes counts explicit Flush (epoch_flush) calls.
	Flushes int64 `metric:"flushes"`

	// TDWaves counts four-counter probe waves.
	TDWaves int64 `metric:"td_waves"`

	// EnvelopesDropped counts data-envelope transmissions the injector discarded
	// in flight.
	EnvelopesDropped int64 `metric:"envelopes_dropped"`

	// EnvelopesDuplicated counts envelopes the injector delivered twice.
	EnvelopesDuplicated int64 `metric:"envelopes_duplicated"`

	// EnvelopesDelayed counts envelopes held back and released out of order.
	EnvelopesDelayed int64 `metric:"envelopes_delayed"`

	// Retransmits counts envelope retransmissions (attempts beyond the first).
	Retransmits int64 `metric:"retransmits"`

	// DupsSuppressed counts envelopes the receiver's dedup window discarded.
	DupsSuppressed int64 `metric:"dups_suppressed"`

	// CorruptionsDetected counts wire envelopes whose checksum failed at the
	// receiver (discarded; recovered by retransmit).
	CorruptionsDetected int64 `metric:"corruptions_detected"`

	// DecodeErrors counts wire envelopes that passed the checksum but failed to
	// decode (discarded unacknowledged; recovered by retransmit).
	DecodeErrors int64 `metric:"decode_errors"`

	// AckMsgs counts acknowledgement envelopes actually sent.
	AckMsgs int64 `metric:"ack_msgs"`

	// AcksDropped counts acknowledgements the injector discarded.
	AcksDropped int64 `metric:"acks_dropped"`

	// RankCrashes counts injected crash-stop rank failures (FaultPlan.Crashes).
	RankCrashes int64 `metric:"rank_crashes"`

	// HandlerPanics counts message-handler panics contained as rank faults.
	HandlerPanics int64 `metric:"handler_panics"`

	// LinkDeaths counts links declared dead at the retransmit ceiling.
	LinkDeaths int64 `metric:"link_deaths"`

	// EpochAborts counts epoch attempts aborted by a rank fault.
	EpochAborts int64 `metric:"epoch_aborts"`

	// Recoveries counts completed epoch rollback-and-replay cycles.
	Recoveries int64 `metric:"recoveries"`

	// Checkpoints counts per-rank epoch-boundary snapshots (WithRecovery).
	Checkpoints int64 `metric:"checkpoints"`

	// WatchdogFires counts stuck-epoch watchdog activations (at most one per
	// run; the watchdog fault is fatal).
	WatchdogFires int64 `metric:"watchdog_fires"`

	// Reconnects counts successful link re-establishments by a socket
	// transport after a connection died (always 0 on the in-process backend).
	Reconnects int64 `metric:"reconnects"`

	// HeartbeatMisses counts liveness-deadline expiries on a socket transport's
	// receive side: no frame (data or heartbeat) arrived on a link within the
	// deadline, so the connection was declared dead and closed.
	HeartbeatMisses int64 `metric:"heartbeat_misses"`

	// FramesRequeued counts unacknowledged envelopes marked due-now after a
	// reconnect, replaying frames lost in the dead connection through the
	// normal retransmit path.
	FramesRequeued int64 `metric:"frames_requeued"`

	// FramesDropped counts frames a socket transport discarded at the sender —
	// link down, mid-reconnect, black-holed by the socket fault schedule, or a
	// write error; the reliable layer recovers every one of them.
	FramesDropped int64 `metric:"frames_dropped"`

	// CleanDepartures counts fleet peers that left gracefully (goodbye frame
	// acknowledged before the connection closed) in a multi-process run.
	CleanDepartures int64 `metric:"clean_departures"`

	// CrashDepartures counts fleet peers that died without a goodbye (heartbeat
	// expiry or connection loss) in a multi-process run.
	CrashDepartures int64 `metric:"crash_departures"`

	// QueryMismatches counts deliveries discarded because their envelope's query
	// context did not match the running epoch's (cross-talk between multiplexed
	// queries; see Rank.EpochCtx). Always 0 on a correct substrate.
	QueryMismatches int64 `metric:"query_mismatches"`
}

// Counter ids, one per Snapshot field: a counter's id is its field's index.
const (
	cMsgsSent            = int(unsafe.Offsetof(Snapshot{}.MsgsSent) / 8)
	cMsgsSuppressed      = int(unsafe.Offsetof(Snapshot{}.MsgsSuppressed) / 8)
	cMsgsCombined        = int(unsafe.Offsetof(Snapshot{}.MsgsCombined) / 8)
	cEnvelopes           = int(unsafe.Offsetof(Snapshot{}.Envelopes) / 8)
	cBytesSent           = int(unsafe.Offsetof(Snapshot{}.BytesSent) / 8)
	cWireBytes           = int(unsafe.Offsetof(Snapshot{}.WireBytes) / 8)
	cHandlersRun         = int(unsafe.Offsetof(Snapshot{}.HandlersRun) / 8)
	cCtrlMsgs            = int(unsafe.Offsetof(Snapshot{}.CtrlMsgs) / 8)
	cEpochs              = int(unsafe.Offsetof(Snapshot{}.Epochs) / 8)
	cFlushes             = int(unsafe.Offsetof(Snapshot{}.Flushes) / 8)
	cTDWaves             = int(unsafe.Offsetof(Snapshot{}.TDWaves) / 8)
	cEnvelopesDropped    = int(unsafe.Offsetof(Snapshot{}.EnvelopesDropped) / 8)
	cEnvelopesDuplicated = int(unsafe.Offsetof(Snapshot{}.EnvelopesDuplicated) / 8)
	cEnvelopesDelayed    = int(unsafe.Offsetof(Snapshot{}.EnvelopesDelayed) / 8)
	cRetransmits         = int(unsafe.Offsetof(Snapshot{}.Retransmits) / 8)
	cDupsSuppressed      = int(unsafe.Offsetof(Snapshot{}.DupsSuppressed) / 8)
	cCorruptionsDetected = int(unsafe.Offsetof(Snapshot{}.CorruptionsDetected) / 8)
	cDecodeErrors        = int(unsafe.Offsetof(Snapshot{}.DecodeErrors) / 8)
	cAckMsgs             = int(unsafe.Offsetof(Snapshot{}.AckMsgs) / 8)
	cAcksDropped         = int(unsafe.Offsetof(Snapshot{}.AcksDropped) / 8)
	cRankCrashes         = int(unsafe.Offsetof(Snapshot{}.RankCrashes) / 8)
	cHandlerPanics       = int(unsafe.Offsetof(Snapshot{}.HandlerPanics) / 8)
	cLinkDeaths          = int(unsafe.Offsetof(Snapshot{}.LinkDeaths) / 8)
	cEpochAborts         = int(unsafe.Offsetof(Snapshot{}.EpochAborts) / 8)
	cRecoveries          = int(unsafe.Offsetof(Snapshot{}.Recoveries) / 8)
	cCheckpoints         = int(unsafe.Offsetof(Snapshot{}.Checkpoints) / 8)
	cWatchdogFires       = int(unsafe.Offsetof(Snapshot{}.WatchdogFires) / 8)
	cReconnects          = int(unsafe.Offsetof(Snapshot{}.Reconnects) / 8)
	cHeartbeatMisses     = int(unsafe.Offsetof(Snapshot{}.HeartbeatMisses) / 8)
	cFramesRequeued      = int(unsafe.Offsetof(Snapshot{}.FramesRequeued) / 8)
	cFramesDropped       = int(unsafe.Offsetof(Snapshot{}.FramesDropped) / 8)
	cCleanDepartures     = int(unsafe.Offsetof(Snapshot{}.CleanDepartures) / 8)
	cCrashDepartures     = int(unsafe.Offsetof(Snapshot{}.CrashDepartures) / 8)
	cQueryMismatches     = int(unsafe.Offsetof(Snapshot{}.QueryMismatches) / 8)

	numCounters = int(unsafe.Sizeof(Snapshot{}) / 8)
)

// counterNames are the exported metric names, indexed by counter id.
var counterNames = func() (names [numCounters]string) {
	t := reflect.TypeOf(Snapshot{})
	for id := range names {
		f := t.Field(id)
		names[id] = f.Tag.Get("metric")
		if t.NumField() != numCounters || f.Type.Kind() != reflect.Int64 || names[id] == "" {
			panic("am: every Snapshot field must be an int64 counter with a metric tag")
		}
	}
	return names
}()

// counters views s as its counters in id order.
func (s *Snapshot) counters() *[numCounters]int64 {
	return (*[numCounters]int64)(unsafe.Pointer(s))
}

// Stats is the read-side view of the universe's message accounting. The
// write path is sharded per rank (see internal/obs): every handler thread
// updates its own rank's padded shard, so counting never contends across
// ranks; reads aggregate over shards and should happen at quiescent points
// (between epochs or after Run) for exact values.
type Stats struct {
	c *obs.Counters
}

// Counters exposes the backing sharded counter set (per-rank reads,
// expvar publishing).
func (s *Stats) Counters() *obs.Counters { return s.c }

// snapshotOf builds a Snapshot from a per-counter read function.
func snapshotOf(get func(id int) int64) (s Snapshot) {
	c := s.counters()
	for id := range c {
		c[id] = get(id)
	}
	return s
}

// Snapshot returns an aggregated copy of every counter, consistent enough
// for use at quiescent points (between epochs).
func (s *Stats) Snapshot() Snapshot {
	return snapshotOf(s.c.Total)
}

// PerRank returns one Snapshot per shard. With the default per-rank sharding
// this is the per-rank accounting (who sent, who handled); under
// WithUnshardedStats it has a single entry.
func (s *Stats) PerRank() []Snapshot {
	out := make([]Snapshot, s.c.Shards())
	for i := range out {
		out[i] = snapshotOf(func(id int) int64 { return s.c.ShardTotal(i, id) })
	}
	return out
}

// Sub returns s - o, counter by counter.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	a, b := s.counters(), o.counters()
	for id := range a {
		a[id] -= b[id]
	}
	return s
}
