package am

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// chatterPayload is a wire-safe payload with a per-message identity so tests
// can assert exactly-once handling.
type chatterPayload struct {
	ID  int64
	Hop int64
}

// runChatter runs a two-epoch all-to-all workload where every handler
// forwards the message once (Hop 0 → Hop 1), exercising handler sends,
// multiple epochs, and every rank pair. It returns per-message delivery
// counts (index = message ID) and the number of user messages sent.
func runChatter(t *testing.T, cfg Config, perRank int, gobWire bool) ([]int64, int64) {
	t.Helper()
	u := NewUniverse(cfg)
	n := cfg.Ranks
	total := 2 * n * perRank // each seed message is forwarded once
	counts := make([]int64, total)
	var mt *MsgType[chatterPayload]
	mt = Register(u, "chatter", func(r *Rank, m chatterPayload) {
		atomic.AddInt64(&counts[m.ID], 1)
		if m.Hop == 0 {
			mt.SendTo(r, (r.ID()+1)%r.N(), chatterPayload{ID: m.ID + int64(n*perRank), Hop: 1})
		}
	})
	if gobWire {
		mt.WithGobTransport()
	}
	u.Run(func(r *Rank) {
		for epoch := 0; epoch < 2; epoch++ {
			r.Epoch(func(ep *Epoch) {
				base := epoch * n * perRank / 2
				for i := 0; i < perRank/2; i++ {
					id := int64(base + r.ID()*perRank/2 + i)
					mt.SendTo(r, (r.ID()+1+i)%r.N(), chatterPayload{ID: id, Hop: 0})
				}
			})
		}
	})
	return counts, u.Stats.MsgsSent()
}

// checkExactlyOnce fails the test unless every message was handled exactly
// once, printing the fault seed so a failure is reproducible.
func checkExactlyOnce(t *testing.T, counts []int64, seed uint64) {
	t.Helper()
	for id, c := range counts {
		if c != 1 {
			t.Fatalf("message %d handled %d times, want exactly once (FaultPlan seed %d)", id, c, seed)
		}
	}
}

func TestReliableExactlyOnceUnderFaults(t *testing.T) {
	for _, det := range []DetectorKind{DetectorAtomic, DetectorFourCounter} {
		for _, threads := range []int{0, 2} {
			name := fmt.Sprintf("%s/threads=%d", det, threads)
			t.Run(name, func(t *testing.T) {
				const seed = 1234
				plan := &FaultPlan{Seed: seed, Drop: 0.2, Dup: 0.1, Delay: 0.1}
				cfg := Config{Ranks: 4, ThreadsPerRank: threads, CoalesceSize: 4,
					Detector: det, FaultPlan: plan}
				counts, sent := runChatter(t, cfg, 64, false)
				checkExactlyOnce(t, counts, seed)
				if sent != int64(len(counts)) {
					t.Fatalf("MsgsSent = %d, want %d", sent, len(counts))
				}
			})
		}
	}
}

// TestFaultCountersObservable asserts the injected faults are visible in
// Stats: at a 20% drop rate the run must record drops, retransmits to
// recover them, duplicates, suppressed duplicates, and acks.
func TestFaultCountersObservable(t *testing.T) {
	const seed = 7
	plan := &FaultPlan{Seed: seed, Drop: 0.2, Dup: 0.15, Delay: 0.1}
	cfg := Config{Ranks: 3, ThreadsPerRank: 1, CoalesceSize: 2, FaultPlan: plan}
	u := NewUniverse(cfg)
	mt := Register(u, "ping", func(r *Rank, m int64) {})
	u.Run(func(r *Rank) {
		r.Epoch(func(ep *Epoch) {
			for i := 0; i < 200; i++ {
				mt.SendTo(r, (r.ID()+1)%r.N(), int64(i))
			}
		})
	})
	s := u.Stats.Snapshot()
	if s.EnvelopesDropped == 0 || s.Retransmits == 0 {
		t.Fatalf("expected drops and retransmits, got %+v (seed %d)", s, seed)
	}
	if s.EnvelopesDuplicated == 0 || s.DupsSuppressed == 0 {
		t.Fatalf("expected duplicates and suppressions, got %+v (seed %d)", s, seed)
	}
	if s.AckMsgs == 0 {
		t.Fatalf("expected acks, got %+v (seed %d)", s, seed)
	}
	if s.HandlersRun != s.MsgsSent {
		t.Fatalf("HandlersRun %d != MsgsSent %d: lost or duplicated messages (seed %d)",
			s.HandlersRun, s.MsgsSent, seed)
	}
}

// TestFourCounterPollOnlyUnderDrops covers the previously untested
// combination: DetectorFourCounter with ThreadsPerRank 0 (messages are
// delivered only when a rank polls) while envelopes are being dropped,
// duplicated, and reordered. The four-counter protocol must still terminate
// each epoch exactly once per message.
func TestFourCounterPollOnlyUnderDrops(t *testing.T) {
	const seed = 99
	plan := &FaultPlan{Seed: seed, Drop: 0.2, Dup: 0.1, Delay: 0.15}
	cfg := Config{Ranks: 3, ThreadsPerRank: 0, CoalesceSize: 3,
		Detector: DetectorFourCounter, FaultPlan: plan}
	counts, _ := runChatter(t, cfg, 60, false)
	checkExactlyOnce(t, counts, seed)
}

// TestGobCorruptionDetectedAndRecovered injects payload corruption into a
// gob-wire type: every corrupted envelope must be detected by the wire
// checksum, counted, and recovered by retransmission, with no handler ever
// observing damaged data.
func TestGobCorruptionDetectedAndRecovered(t *testing.T) {
	const seed = 5150
	plan := &FaultPlan{Seed: seed, Corrupt: 0.3}
	cfg := Config{Ranks: 2, ThreadsPerRank: 1, CoalesceSize: 4, FaultPlan: plan}
	u := NewUniverse(cfg)
	var bad atomic.Int64
	var handled atomic.Int64
	mt := Register(u, "wire", func(r *Rank, m chatterPayload) {
		handled.Add(1)
		if m.Hop != m.ID*3 {
			bad.Add(1)
		}
	}).WithGobTransport()
	const per = 300
	u.Run(func(r *Rank) {
		r.Epoch(func(ep *Epoch) {
			for i := 0; i < per; i++ {
				mt.SendTo(r, 1-r.ID(), chatterPayload{ID: int64(i), Hop: int64(i) * 3})
			}
		})
	})
	if got := handled.Load(); got != 2*per {
		t.Fatalf("handled %d, want %d (seed %d)", got, 2*per, seed)
	}
	if bad.Load() != 0 {
		t.Fatalf("%d handlers observed corrupted payloads (seed %d)", bad.Load(), seed)
	}
	if u.Stats.CorruptionsDetected() == 0 {
		t.Fatalf("no corruptions detected at 30%% corruption rate (seed %d)", seed)
	}
	if u.Stats.Retransmits() == 0 {
		t.Fatalf("corrupted envelopes were not retransmitted (seed %d)", seed)
	}
}

// TestReliableZeroRatesProtocolOnly runs the reliable protocol with all
// fault rates zero: pure protocol overhead, no faults, exact delivery.
func TestReliableZeroRatesProtocolOnly(t *testing.T) {
	cfg := Config{Ranks: 3, ThreadsPerRank: 2, FaultPlan: &FaultPlan{Seed: 1}}
	counts, _ := runChatter(t, cfg, 40, false)
	checkExactlyOnce(t, counts, 1)
}

// TestReliableDeterministicSchedule runs an identical single-rank,
// poll-only workload twice: with one goroutine the whole execution is
// sequential, so the stateless fault schedule must reproduce the exact same
// counter values run to run.
func TestReliableDeterministicSchedule(t *testing.T) {
	run := func() Snapshot {
		plan := &FaultPlan{Seed: 42, Drop: 0.25, Dup: 0.2, Delay: 0.2}
		u := NewUniverse(Config{Ranks: 1, ThreadsPerRank: 0, CoalesceSize: 2, FaultPlan: plan})
		mt := Register(u, "self", func(r *Rank, m int64) {})
		u.Run(func(r *Rank) {
			r.Epoch(func(ep *Epoch) {
				for i := 0; i < 500; i++ {
					mt.SendTo(r, 0, int64(i))
				}
			})
		})
		return u.Stats.Snapshot()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different fault schedule:\n run1 %+v\n run2 %+v", a, b)
	}
	if a.EnvelopesDropped == 0 || a.Retransmits == 0 {
		t.Fatalf("schedule injected nothing: %+v", a)
	}
}

// TestShutdownStress hammers the Universe.Run teardown path — four-counter
// probes, handler threads, and the reliable layer's retransmit polling all
// winding down at epoch end — to demonstrate the absence of a
// send-on-closed-channel race between the ctrl responder teardown and late
// probe/retransmit activity. Run with -race.
func TestShutdownStress(t *testing.T) {
	for i := 0; i < 30; i++ {
		plan := &FaultPlan{Seed: uint64(i), Drop: 0.15, Dup: 0.1, Delay: 0.1,
			RetransmitBase: 1}
		u := NewUniverse(Config{Ranks: 4, ThreadsPerRank: 2, CoalesceSize: 1,
			Detector: DetectorFourCounter, FaultPlan: plan})
		var got atomic.Int64
		mt := Register(u, "m", func(r *Rank, m int64) { got.Add(1) })
		err := u.Run(func(r *Rank) {
			// Several tiny epochs so teardown happens right after
			// termination-detection and retransmit activity.
			for e := 0; e < 4; e++ {
				r.Epoch(func(ep *Epoch) {
					for d := 0; d < r.N(); d++ {
						mt.SendTo(r, d, int64(d))
					}
				})
			}
		})
		if err != nil {
			t.Fatalf("iteration %d: Run: %v", i, err)
		}
		want := int64(4 * 4 * 4)
		if got.Load() != want {
			t.Fatalf("iteration %d: handled %d, want %d", i, got.Load(), want)
		}
	}
}

// TestTrustedShutdownStress is the same teardown stress without a fault
// plan, guarding the original transport's shutdown ordering.
func TestTrustedShutdownStress(t *testing.T) {
	for i := 0; i < 30; i++ {
		u := NewUniverse(Config{Ranks: 4, ThreadsPerRank: 2, CoalesceSize: 1,
			Detector: DetectorFourCounter})
		var got atomic.Int64
		mt := Register(u, "m", func(r *Rank, m int64) { got.Add(1) })
		u.Run(func(r *Rank) {
			for e := 0; e < 4; e++ {
				r.Epoch(func(ep *Epoch) {
					for d := 0; d < r.N(); d++ {
						mt.SendTo(r, d, int64(d))
					}
				})
			}
		})
		if want := int64(4 * 4 * 4); got.Load() != want {
			t.Fatalf("iteration %d: handled %d, want %d", i, got.Load(), want)
		}
	}
}

// TestReliableWithReduction checks the caching/reduction layer composes
// with reliable delivery: suppressed messages never enter the wire, and the
// survivors are delivered exactly once under faults.
func TestReliableWithReduction(t *testing.T) {
	const seed = 31337
	plan := &FaultPlan{Seed: seed, Drop: 0.2, Dup: 0.1}
	u := NewUniverse(Config{Ranks: 2, ThreadsPerRank: 1, CoalesceSize: 1 << 20, FaultPlan: plan})
	var handled atomic.Int64
	mt := Register(u, "upd", func(r *Rank, m chatterPayload) { handled.Add(1) }).
		WithReduction(
			func(m chatterPayload) uint64 { return uint64(m.ID) },
			func(old, in chatterPayload) (chatterPayload, bool) { return old, false },
		)
	u.Run(func(r *Rank) {
		r.Epoch(func(ep *Epoch) {
			if r.ID() == 0 {
				for i := 0; i < 50; i++ {
					mt.SendTo(r, 1, chatterPayload{ID: int64(i % 10)})
				}
			}
		})
	})
	if handled.Load() != 10 {
		t.Fatalf("handled %d, want 10 (seed %d)", handled.Load(), seed)
	}
}
