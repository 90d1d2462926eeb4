package am

import "fmt"

// FaultPlan configures deterministic fault injection on the simulated
// network. Setting a non-nil FaultPlan on Config switches the transport into
// *reliable* mode: every shipped envelope carries a per-(src, dest, type)
// sequence number, the receiver deduplicates and acknowledges envelopes, and
// the sender retransmits unacknowledged envelopes with exponential backoff.
// With a nil FaultPlan the transport runs in the original trusted mode
// (direct hand-off, zero protocol overhead).
//
// Fault decisions are *stateless*: whether transmission attempt a of
// envelope seq on link (src, dest, type) is dropped, duplicated, delayed, or
// corrupted is a pure function of (Seed, link, seq, a). This makes the fault
// schedule on the data path reproducible for a fixed seed regardless of
// goroutine interleaving — the k-th envelope a link ships always suffers the
// same fate, and a retransmit (a new attempt) rolls fresh faults, so
// delivery eventually succeeds.
//
// All probabilities are in [0, 1]. Zero-valued rates inject nothing but
// still exercise the full reliable-delivery protocol (sequence numbers,
// acks, dedup), which is how the protocol's overhead is measured (E16).
type FaultPlan struct {
	// Seed drives every fault decision. Two universes configured with the
	// same plan see the same per-link fault schedule.
	Seed uint64
	// Drop is the probability that a transmitted envelope vanishes.
	// Acknowledgements are dropped with the same probability (a lost ack
	// forces a retransmit that the receiver suppresses as a duplicate).
	Drop float64
	// Dup is the probability that the network delivers an envelope twice.
	Dup float64
	// Delay is the probability that an envelope is held back by the
	// network and released out of order (after ~DelayTicks sender progress
	// ticks), reordering it behind envelopes shipped later.
	Delay float64
	// DelayTicks is the mean hold time of a delayed envelope, measured in
	// sender progress ticks (a tick elapses each time the sending rank
	// polls its links). 0 selects the default (8).
	DelayTicks int
	// Corrupt is the probability that the payload of an envelope of a
	// wire (codec-equipped) type is corrupted in flight (a byte of the
	// encoded stream is flipped after the wire checksum is computed, so the
	// receiver detects the damage, discards the envelope, and lets the
	// retransmit path recover). Types without a wire codec ship by
	// reference and cannot be corrupted.
	Corrupt float64
	// RetransmitBase is the initial retransmit timeout in sender progress
	// ticks; attempt n waits RetransmitBase << min(n, 6) ticks. 0 selects
	// the default (8).
	RetransmitBase int
	// BackoffJitter, when in (0, 1], spreads every retransmit timeout by a
	// deterministic factor drawn uniformly from
	// [1-BackoffJitter, 1+BackoffJitter) — a pure function of
	// (Seed, link, seq, attempt), so schedules stay reproducible. 0 (the
	// default) keeps the exact exponential timeouts; socket transports
	// default it on (via their synthesized plan) to desynchronize the
	// retransmit burst that follows a reconnect.
	BackoffJitter float64
	// MaxAttempts bounds transmissions per envelope; exceeding it, once the
	// envelope has also gone unacknowledged for a second of wall time,
	// raises a structured LinkDead rank fault (at Drop = 0.2 the default
	// ceiling of 30 is reached with probability 0.2^30 ≈ 1e-21 per
	// envelope; the wall-time floor keeps a descheduled receiver from
	// looking dead to a sender spinning through its ticks). With
	// Config.Recovery the damaged epoch rolls back to its checkpoint and
	// replays; without it Universe.Run returns the fault as an error.
	// 0 selects the default (30).
	MaxAttempts int
	// Crashes injects deterministic crash-stop rank failures: each entry
	// kills one rank during one epoch (at entry, or after its k-th handled
	// message). A crashed rank stops handling, drops its inbox, and goes
	// silent; peers observe it only through missing acknowledgements. Each
	// entry fires at most once per run. Requires Config.Recovery for the
	// run to survive.
	Crashes []Crash
	// DeadLinks severs directed links for one epoch each: every
	// transmission (data and acks) from Src to Dest during that epoch
	// vanishes, so the sender's retransmit ceiling eventually raises a
	// LinkDead fault. A severed link is healed when the epoch recovers,
	// making link death deterministic *and* recoverable.
	DeadLinks []DeadLink
}

// Crash is one injected crash-stop failure: rank Rank dies during epoch
// Epoch (the universe-wide epoch sequence number, starting at 0).
type Crash struct {
	Rank  int
	Epoch int64
	// AfterHandled delays the crash until the rank has handled this many
	// messages within the epoch (a mid-epoch crash, with handlers half
	// applied); <= 0 crashes at epoch entry, before the body runs.
	AfterHandled int
}

// DeadLink severs the directed link Src→Dest for the duration of epoch
// Epoch (until the epoch's recovery heals it).
type DeadLink struct {
	Src, Dest int
	Epoch     int64
}

func (fp *FaultPlan) withDefaults() *FaultPlan {
	c := *fp
	if c.DelayTicks <= 0 {
		c.DelayTicks = 8
	}
	if c.RetransmitBase <= 0 {
		c.RetransmitBase = 8
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 30
	}
	for _, p := range []float64{c.Drop, c.Dup, c.Delay, c.Corrupt, c.BackoffJitter} {
		if p < 0 || p > 1 {
			panic(fmt.Sprintf("am: FaultPlan probability %v outside [0,1]", p))
		}
	}
	return &c
}

// defaultSockBackoffJitter is the BackoffJitter a socket transport's
// synthesized fault plan uses (see NewUniverse).
const defaultSockBackoffJitter = 0.25

// Fault decision kinds, mixed into the hash so each decision on the same
// (link, seq, attempt) is independent.
const (
	faultDrop = iota + 1
	faultDup
	faultDelay
	faultCorrupt
	faultCorruptByte
	faultDelayTicks
	faultAckDrop
	faultBackoffJitter
)

// splitmix64 is the SplitMix64 output function: a bijective avalanche mix
// used here as a keyed hash over fault-decision coordinates.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// roll returns a uniform float64 in [0, 1) for one fault decision.
func (fp *FaultPlan) roll(kind, src, dest, typ int, seq uint64, attempt int) float64 {
	h := splitmix64(fp.Seed ^ splitmix64(uint64(kind)<<56|uint64(src)<<42|uint64(dest)<<28|uint64(typ)<<14|uint64(attempt)) ^ splitmix64(seq))
	return float64(h>>11) / (1 << 53)
}

// rollN returns a deterministic integer in [1, n] for one fault decision.
func (fp *FaultPlan) rollN(kind, src, dest, typ int, seq uint64, attempt, n int) int {
	if n <= 1 {
		return 1
	}
	return 1 + int(uint64(fp.roll(kind, src, dest, typ, seq, attempt)*float64(n)))%n
}
