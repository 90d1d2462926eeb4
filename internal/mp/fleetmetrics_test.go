package mp

// Launcher-side observability unit tests: the straggler tracker's fold/emit
// discipline and the fleet monitor's OpenMetrics rendering. The end-to-end
// path (real workers streaming real kernel spans) is covered by
// TestLaunchFleetObservability.

import (
	"strings"
	"testing"

	"declpat/internal/obs"
)

func kernelSpan(rank int, epoch, dur int64) obs.Record {
	return obs.Record{Kind: "phase", Type: obs.PhaseKernel.String(),
		Rank: rank, Arg2: epoch, TS: epoch * 1_000, Dur: dur}
}

func TestStragglerTrackerFold(t *testing.T) {
	tr := newStragglerTracker(2)

	// One rank reported: the epoch is incomplete, nothing emits.
	if out := tr.fold([]obs.Record{kernelSpan(0, 1, 40)}); len(out) != 0 {
		t.Fatalf("emitted with half the ranks missing: %+v", out)
	}
	// Non-kernel spans never count toward completion.
	barrier := obs.Record{Kind: "phase", Type: obs.PhaseBarrier.String(), Rank: 1, Arg2: 1, Dur: 999}
	if out := tr.fold([]obs.Record{barrier}); len(out) != 0 {
		t.Fatalf("barrier span completed the epoch: %+v", out)
	}
	// The missing rank arrives: exactly one summary, with the slow rank named.
	out := tr.fold([]obs.Record{kernelSpan(1, 1, 120)})
	if len(out) != 1 {
		t.Fatalf("complete epoch emitted %d summaries, want 1", len(out))
	}
	st := out[0]
	if st.Epoch != 1 || st.Ranks != 2 || st.SlowRank != 1 || st.MaxNS != 120 || st.MinNS != 40 || st.MeanNS != 80 {
		t.Fatalf("summary: %+v", st)
	}
	if st.Imbalance != 1.5 {
		t.Fatalf("imbalance %v, want 120/80 = 1.5", st.Imbalance)
	}
	// Replayed spans for an emitted epoch (a restarted attempt re-running it)
	// never re-emit.
	if out := tr.fold([]obs.Record{kernelSpan(0, 1, 40), kernelSpan(1, 1, 40)}); len(out) != 0 {
		t.Fatalf("emitted epoch re-emitted: %+v", out)
	}
	if got, ok := tr.Latest(); !ok || got.Epoch != 1 {
		t.Fatalf("Latest() = %+v ok=%v", got, ok)
	}
}

func TestFleetMonitorOpenMetrics(t *testing.T) {
	var watch strings.Builder
	mon := NewFleetMonitor(&watch)
	mon.straggler(StragglerStat{Epoch: 4, Ranks: 2, MeanNS: 80, MaxNS: 120, MinNS: 40,
		SlowRank: 1, Imbalance: 1.5, PerRank: map[int]int64{0: 40, 1: 120}})
	if !strings.Contains(watch.String(), "epoch 4: imbalance 1.50") {
		t.Fatalf("watch line = %q", watch.String())
	}
	mon.telemetry(1, obs.ProcessTelemetry{Process: "worker-1", Counters: map[string]int64{"msgs_sent": 7}})
	mon.Finish(&LaunchResult{
		Vectors:         [][]int64{{1}},
		Attempts:        2,
		CleanDepartures: 0,
		ClockErrNS:      50_000,
		ExitCodes:       [][]int{{0, -1}, {0, 0}},
	})

	var sb strings.Builder
	if err := mon.WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{
		"declpat_fleet_epochs_summarized_total 1",
		"declpat_fleet_epoch_imbalance 1.5",
		"declpat_fleet_epoch_slow_rank 1",
		`declpat_fleet_epoch_kernel_seconds{rank="1"}`,
		"declpat_fleet_attempts_total 2",
		"declpat_fleet_clean_departures_total 0",
		"declpat_fleet_crash_departures_total 1",
		"declpat_fleet_clock_err_seconds 5e-05",
		`declpat_fleet_worker_exits_total{exit="code 0 (clean)"} 3`,
		`declpat_fleet_worker_exits_total{exit="killed by signal"} 1`,
		`declpat_msgs_sent_total{process="worker-1"} 7`,
		"# EOF",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("metrics missing %q:\n%s", want, got)
		}
	}
}
