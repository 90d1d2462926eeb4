package am

import (
	"testing"

	"declpat/internal/obs"
)

// TestPhaseTimersRecorded proves the tentpole's first layer: with
// Config.Timing on, every epoch lands kernel and barrier spans in the
// per-phase histograms, broken down per rank; with it off the whole plane
// is absent and Rank.Phase is inert.
func TestPhaseTimersRecorded(t *testing.T) {
	cfg := Config{Ranks: 3, ThreadsPerRank: 2, Timing: true}
	u := NewUniverse(cfg)
	mt := Register(u, "ping", func(r *Rank, m chatterPayload) {})
	err := u.Run(func(r *Rank) {
		for epoch := 0; epoch < 2; epoch++ {
			r.Epoch(func(ep *Epoch) {
				ph := r.Phase(obs.PhaseCollect)
				mt.SendTo(r, (r.ID()+1)%r.N(), chatterPayload{ID: int64(r.ID())})
				ph.End()
			})
			r.Barrier()
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	phases := u.Phases()
	for _, want := range []string{"collect", "kernel", "barrier"} {
		h, ok := phases[want]
		if !ok || h.Count == 0 {
			t.Fatalf("phase %q missing or empty: %v", want, phases)
		}
		if h.Sum < 0 || h.Max < 0 {
			t.Fatalf("phase %q has negative durations: %+v", want, h)
		}
	}
	// 3 ranks x 2 epochs of explicit collect scopes.
	if got := phases["collect"].Count; got != 6 {
		t.Fatalf("collect spans = %d, want 6", got)
	}
	rp := u.RankPhases()
	if len(rp) != cfg.Ranks {
		t.Fatalf("RankPhases len = %d, want %d", len(rp), cfg.Ranks)
	}
	var perRank int64
	for _, m := range rp {
		perRank += m["collect"].Count
	}
	if perRank != phases["collect"].Count {
		t.Fatalf("per-rank collect spans sum to %d, aggregate says %d", perRank, phases["collect"].Count)
	}

	// Timing off: no histograms, and scopes are the zero value.
	u2 := NewUniverse(Config{Ranks: 1})
	err = u2.Run(func(r *Rank) {
		ph := r.Phase(obs.PhaseKernel)
		if ph != (PhaseScope{}) {
			t.Error("Phase with timing and tracing off must return the zero scope")
		}
		ph.End() // must be a no-op, not a nil deref
	})
	if err != nil {
		t.Fatalf("Run (timing off): %v", err)
	}
	if u2.Phases() != nil {
		t.Fatalf("Phases() with timing off = %v, want nil", u2.Phases())
	}
}

// TestCounterSeriesFeedsSampler wires the universe's counter series into an
// obs.Sampler and checks the live-sampling layer sees real totals.
func TestCounterSeriesFeedsSampler(t *testing.T) {
	u := NewUniverse(Config{Ranks: 2})
	mt := Register(u, "c", func(r *Rank, m chatterPayload) {})
	s := obs.NewSampler(8, u.CounterSeries)
	s.Tick() // empty universe: zero baseline
	err := u.Run(func(r *Rank) {
		r.Epoch(func(ep *Epoch) {
			for i := 0; i < 10; i++ {
				mt.SendTo(r, (r.ID()+1)%r.N(), chatterPayload{ID: int64(i)})
			}
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	s.Tick()
	w := s.Samples()
	last := w[len(w)-1]
	if last.Values["msgs_sent"] != 20 || last.Deltas["msgs_sent"] != 20 {
		t.Fatalf("sampler saw msgs_sent=%d delta=%d, want 20/20", last.Values["msgs_sent"], last.Deltas["msgs_sent"])
	}
}
