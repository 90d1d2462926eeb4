package am

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"declpat/internal/obs"
)

// Reliable-delivery layer (active when Config.FaultPlan != nil).
//
// Sender side: each (dest, type) link assigns consecutive sequence numbers
// to shipped envelopes and keeps every envelope in an outstanding table
// until the receiver acknowledges it. Retransmission is poll-driven: every
// flushAll on the sending rank advances that rank's link tick and
// retransmits overdue envelopes with exponential backoff — no timer
// goroutines exist, so nothing can fire after Universe.Run's teardown
// (see the shutdown audit in universe.go).
//
// Receiver side: each (src, type) link tracks the contiguous prefix of
// delivered sequence numbers plus a set of out-of-order arrivals (delay
// faults reorder envelopes). A duplicate — retransmit of a delivered
// envelope or a network duplicate — is suppressed before any handler runs
// and re-acknowledged, so user messages are handled exactly once and the
// termination detectors' counters (pending, sentC/recvC) are never
// double-counted.
//
// Epoch safety: both termination detectors additionally require every link
// to be quiet (no outstanding, no delayed envelopes — relPending == 0 on
// every rank), so an epoch ends only after every envelope it shipped has
// been delivered exactly once *and* acknowledged. The only traffic that can
// cross an epoch boundary is a redundant duplicate ack, whose handler is a
// no-op.

// ackTypeID marks acknowledgement envelopes in the inbox stream.
const ackTypeID int32 = -1

// ackBody is the payload of an acknowledgement envelope: the message type
// whose (src=receiver's view, seq) envelope is being acknowledged.
type ackBody struct {
	typ int32
}

// outEnvelope is one unacknowledged envelope held by the sender.
type outEnvelope struct {
	data     any      // the original []T batch; re-encoded per attempt for wire types
	lin      []uint64 // causal lineage per message, preserved across retransmits
	attempts int      // transmissions performed so far
	due      uint64
	sentNs   int64 // first-transmission timestamp (Config.Timing ack RTT)
	// budgetNs is when the current attempt budget started: the first
	// transmission, or the last reconnect (requeueOutstanding). The link is
	// declared dead only once both the attempt ceiling and linkDeadAfterNs
	// of wall time since budgetNs are spent.
	budgetNs int64
	// refs guards the batch against recycling while still reachable: the
	// outstanding table holds one reference and every in-flight
	// retransmission takes one more for the duration of its re-encode.
	// Whoever drops the count to zero owns the batch; for wire types it
	// returns the batch to the type's pool (the receiver only ever sees a
	// decoded copy, so the ack proves the sender's copy is dead). Non-wire
	// batches ship by reference and are never pooled here — the ack precedes
	// the receiver's handler loop, which still reads them.
	refs atomic.Int32
}

// release drops one reference to the outstanding batch and recycles it on
// the last drop (wire types only; see refs).
func (o *outEnvelope) release(rec *msgType) {
	if o.refs.Add(-1) == 0 && rec.wire {
		rec.recycle(o.data)
	}
}

// delayedEnvelope is an envelope held back by the simulated network.
type delayedEnvelope struct {
	env envelope
	due uint64
}

// sendLink is one rank's sender-side state for one (dest, type) link.
type sendLink struct {
	mu      sync.Mutex
	nextSeq uint64
	out     map[uint64]*outEnvelope
	delayed []delayedEnvelope
}

// recvLink is one rank's receiver-side dedup window for one (src, type)
// link: every seq <= contig has been delivered, plus the out-of-order seqs
// in ahead. acks counts acknowledgements issued (the salt for ack-drop
// decisions, so each re-ack rolls an independent fault).
type recvLink struct {
	mu     sync.Mutex
	contig uint64
	ahead  map[uint64]struct{}
	acks   uint64
}

// initReliability allocates the per-rank link state. Called from Run once
// the type set is frozen, and again during recovery's scrub phase. relInit
// orders the table swap against requeueOutstanding, the one reader that
// runs on a transport goroutine instead of a rank-owned one.
func (r *Rank) initReliability(ntypes int) {
	n := r.u.cfg.Ranks
	send := make([][]sendLink, n)
	recv := make([][]recvLink, n)
	for i := 0; i < n; i++ {
		send[i] = make([]sendLink, ntypes)
		recv[i] = make([]recvLink, ntypes)
	}
	r.relInit.Lock()
	r.send = send
	r.recv = recv
	r.relInit.Unlock()
}

// requeueOutstanding marks every unacknowledged envelope bound for dest due
// for immediate retransmission and returns how many it marked. Called by a
// socket backend right after a reconnect: frames written into the dead
// connection were lost exactly like dropped packets, and rather than wait
// out their (possibly deep) backoff the sender replays them through the
// normal retransmit path at the next poll. The attempt count resets too —
// the ceiling measures failures on a connection believed live, and a
// reconnect is proof the prior attempts went into a dead pipe, so each
// connection incarnation gets the full budget. Envelopes parked at the
// retransmit ceiling stay parked — the link-death fault has already been
// raised for them.
func (r *Rank) requeueOutstanding(dest int) int {
	r.relInit.Lock()
	defer r.relInit.Unlock()
	if r.send == nil || dest < 0 || dest >= len(r.send) {
		return 0
	}
	n := 0
	for typ := range r.send[dest] {
		l := &r.send[dest][typ]
		l.mu.Lock()
		for _, o := range l.out {
			if o.due != ^uint64(0) {
				o.due = 0
				o.attempts = 0
				o.budgetNs = obs.Now()
				n++
			}
		}
		l.mu.Unlock()
	}
	return n
}

// nextSeq assigns the next sequence number on (r → dest, typ) and records
// the batch as outstanding.
func (r *Rank) nextSeq(dest int, typ int32, data any, lin []uint64) uint64 {
	l := &r.send[dest][typ]
	o := &outEnvelope{
		data: data,
		lin:  lin,
	}
	o.refs.Store(1) // the outstanding table's reference; dropped by handleAck
	if r.u.ackRTT != nil {
		o.sentNs = obs.Now()
	}
	o.budgetNs = obs.Now()
	l.mu.Lock()
	l.nextSeq++
	seq := l.nextSeq
	o.due = r.linkTick.Load() + r.u.fp.backoffTicks(r.id, dest, int(typ), seq, 0)
	if l.out == nil {
		l.out = make(map[uint64]*outEnvelope)
	}
	l.out[seq] = o
	l.mu.Unlock()
	r.relAdd(1)
	return seq
}

// holdDelayed parks an envelope on the sending link until the rank's tick
// reaches due (the release happens in pollLinks).
func (r *Rank) holdDelayed(dest int, e envelope, due uint64) {
	l := &r.send[dest][e.typeID]
	l.mu.Lock()
	l.delayed = append(l.delayed, delayedEnvelope{env: e, due: due})
	l.mu.Unlock()
	r.relAdd(1)
}

// admit records (src, typ, seq) in the dedup window. It reports whether the
// envelope is fresh (false: duplicate, must be suppressed) and returns the
// ack salt to use when acknowledging it.
func (r *Rank) admit(src int, typ int32, seq uint64) (fresh bool, salt uint64) {
	l := &r.recv[src][typ]
	l.mu.Lock()
	defer l.mu.Unlock()
	salt = l.acks
	l.acks++
	if seq <= l.contig {
		return false, salt
	}
	if _, dup := l.ahead[seq]; dup {
		return false, salt
	}
	if l.ahead == nil {
		l.ahead = make(map[uint64]struct{})
	}
	l.ahead[seq] = struct{}{}
	for {
		if _, ok := l.ahead[l.contig+1]; !ok {
			break
		}
		delete(l.ahead, l.contig+1)
		l.contig++
	}
	return true, salt
}

// sendAck acknowledges envelope (src→r, typ, seq). Acks ride the same
// simulated network and are dropped with the plan's Drop probability; a
// lost ack is recovered by the sender's retransmit, which the receiver
// suppresses and re-acknowledges with a fresh salt.
func (r *Rank) sendAck(src int, typ int32, seq uint64, salt uint64) {
	u := r.u
	if u.linkDown(r.id, src) {
		// Acks ride the same links: a severed (r → src) direction starves
		// the peer's retransmit loop into declaring the link dead.
		r.st.Inc(cAcksDropped)
		u.trace(r.id, TraceDrop, int64(ackTypeID), int64(seq))
		return
	}
	if u.fp.roll(faultAckDrop, r.id, src, int(typ), seq, int(salt)) < u.fp.Drop {
		r.st.Inc(cAcksDropped)
		u.trace(r.id, TraceDrop, int64(ackTypeID), int64(seq))
		return
	}
	r.st.Inc(cAckMsgs)
	r.st.Add(cBytesSent, envelopeHeaderBytes)
	u.trace(r.id, TraceAck, int64(typ), int64(seq))
	u.push(r.id, src, envelope{
		typeID: ackTypeID, src: int32(r.id), seq: seq, gen: u.epochGen.Load(), data: ackBody{typ: typ},
	})
}

// handleAck clears the acknowledged envelope from the sender's outstanding
// table. Duplicate acks (re-acks of suppressed retransmits) are no-ops.
func (r *Rank) handleAck(e envelope) {
	ab := e.data.(ackBody)
	l := &r.send[int(e.src)][ab.typ]
	l.mu.Lock()
	o, ok := l.out[e.seq]
	if ok {
		delete(l.out, e.seq)
	}
	l.mu.Unlock()
	if ok {
		if r.u.ackRTT != nil && o.sentNs != 0 {
			// RTT from the first transmission, so a retransmitted
			// envelope's RTT includes the recovery latency.
			r.u.ackRTT.Observe(r.shard, obs.Now()-o.sentNs)
		}
		r.relAdd(-1)
		o.release(r.u.types[ab.typ])
	}
}

// linkDeadAfterNs is the least wall time an envelope must go unacknowledged
// before its link may be declared dead. Retransmit timeouts count ticks of
// the sender's own progress loop, so a spinning sender can use up
// MaxAttempts in microseconds while the receiver is merely descheduled;
// the floor makes link death mean a silent peer, not a busy scheduler.
const linkDeadAfterNs = int64(time.Second)

// backoffShiftCap bounds the exponential retransmit backoff at
// RetransmitBase << 6 ticks.
const backoffShiftCap = 6

// backoffTicks returns the retransmit timeout after `attempts`
// transmissions on link (src → dest, typ, seq): exponential in attempts,
// capped at RetransmitBase << backoffShiftCap, and — when
// FaultPlan.BackoffJitter is set — spread deterministically by up to
// ±BackoffJitter of the nominal value (never below one tick). The jitter is
// a pure function of (seed, link, seq, attempts), so a fixed seed still
// yields a reproducible schedule; an acknowledged envelope leaves the table,
// so a later envelope on the same link restarts from attempts = 0.
func (fp *FaultPlan) backoffTicks(src, dest, typ int, seq uint64, attempts int) uint64 {
	shift := attempts
	if shift > backoffShiftCap {
		shift = backoffShiftCap
	}
	t := uint64(fp.RetransmitBase) << shift
	if fp.BackoffJitter > 0 {
		f := 1 - fp.BackoffJitter + 2*fp.BackoffJitter*fp.roll(faultBackoffJitter, src, dest, typ, seq, attempts)
		if t = uint64(float64(t) * f); t < 1 {
			t = 1
		}
	}
	return t
}

// pollLinks advances this rank's link tick, releases matured delayed
// envelopes, and retransmits overdue unacknowledged envelopes. It reports
// whether it moved anything. Called from flushAll, i.e. from epoch bodies
// and progress loops only — never from a detached goroutine.
func (r *Rank) pollLinks() bool {
	u := r.u
	if u.fp == nil || r.relPendingNow() == 0 {
		return false
	}
	if u.epochState.Load() == epochAborting {
		return false // the epoch is rolling back; recovery resets the links
	}
	nowNs := obs.Now()
	if ivl := u.tickIntNs; ivl > 0 {
		// Real-latency backends pace the tick: a spinning progress loop
		// polls millions of times a second, which would turn the
		// tick-denominated retransmit timeouts into microseconds and
		// retransmit every frame long before a socket round trip completes.
		last := r.lastTickNs.Load()
		if nowNs-last < ivl || !r.lastTickNs.CompareAndSwap(last, nowNs) {
			return false
		}
	}
	now := r.linkTick.Add(1)
	worked := false
	type resend struct {
		rec     *msgType
		o       *outEnvelope
		dest    int
		seq     uint64
		attempt int
	}
	var resends []resend
	var releases []envelope
	var releaseDest []int
	for dest := range r.send {
		for typ := range r.send[dest] {
			l := &r.send[dest][typ]
			l.mu.Lock()
			if len(l.delayed) > 0 {
				kept := l.delayed[:0]
				for _, d := range l.delayed {
					if d.due <= now {
						releases = append(releases, d.env)
						releaseDest = append(releaseDest, dest)
					} else {
						kept = append(kept, d)
					}
				}
				l.delayed = kept
			}
			// Collect due seqs in sorted order: map iteration order is
			// random, and the retransmission order feeds delivery and
			// ack timing, which must be reproducible for a fixed seed
			// on a deterministic (single-threaded) schedule.
			var due []uint64
			for seq, o := range l.out {
				if o.due <= now {
					due = append(due, seq)
				}
			}
			slices.Sort(due)
			for _, seq := range due {
				o := l.out[seq]
				o.attempts++
				if o.attempts > u.fp.MaxAttempts && nowNs-o.budgetNs >= linkDeadAfterNs {
					// Retransmit ceiling: declare the link dead. The
					// envelope is parked (never due again) and the
					// structured fault aborts the epoch — recovery heals
					// the link, resets this table, and replays; without
					// recovery Universe.Run returns the fault.
					o.due = ^uint64(0)
					l.mu.Unlock()
					r.st.Inc(cLinkDeaths)
					u.trace(r.id, TraceLinkDead, int64(typ), int64(seq))
					u.raiseFault(RankFault{
						Kind: FaultLinkDead, Rank: dest, Epoch: u.epochSeq.Load(),
						Detail: fmt.Sprintf(
							"link %d->%d type %s seq %d dead after %d attempts (FaultPlan seed %d)",
							r.id, dest, u.types[typ].name, seq, o.attempts, u.fp.Seed),
					})
					return worked
				}
				o.due = now + u.fp.backoffTicks(r.id, dest, typ, seq, o.attempts)
				// Pin the batch across the retransmission: a concurrent ack
				// must not recycle it while xmit is still re-encoding.
				o.refs.Add(1)
				resends = append(resends, resend{u.types[typ], o, dest, seq, o.attempts})
			}
			l.mu.Unlock()
		}
	}
	for i, e := range releases {
		u.push(r.id, releaseDest[i], e)
		r.relAdd(-1)
		worked = true
	}
	for _, rs := range resends {
		rs.rec.xmit(r, rs.dest, rs.seq, rs.attempt, rs.o.data, rs.o.lin)
		rs.o.release(rs.rec)
		worked = true
	}
	return worked
}

// totalRelPending sums the per-rank count of unacknowledged and delayed
// envelopes. Zero means every shipped envelope has been delivered and
// acknowledged — part of both detectors' quiescence condition, so epochs
// never end with protocol traffic still in flight.
func (u *Universe) totalRelPending() int64 {
	if u.fp == nil {
		return 0
	}
	return u.relPending.Value()
}
