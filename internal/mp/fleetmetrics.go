package mp

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"

	"declpat/internal/obs"
)

// FleetMonitor aggregates launcher-side observability — the live straggler
// feed, every worker's latest substrate telemetry, and the post-launch
// departure census — and serves it as OpenMetrics text. Set it as
// LaunchSpec.Monitor and wire WriteOpenMetrics into a harness.DebugServer's
// /metrics handler; call Finish when Launch returns so the scrape picks up
// the exit-code tallies.
type FleetMonitor struct {
	watch io.Writer

	mu       sync.Mutex
	workers  map[int]obs.ProcessTelemetry // latest snapshot per worker index
	latest   StragglerStat
	has      bool
	epochs   int64
	attempts int64
	clean    int64
	crash    int64
	clockErr int64
	exits    map[string]int
}

// NewFleetMonitor builds an empty monitor. A non-nil watch receives one
// line per straggler summary as the fleet runs (declpat-launch -watch).
func NewFleetMonitor(watch io.Writer) *FleetMonitor {
	return &FleetMonitor{watch: watch, workers: map[int]obs.ProcessTelemetry{}, exits: map[string]int{}}
}

// straggler records one per-epoch imbalance summary. Called from the
// coordinator event loop.
func (m *FleetMonitor) straggler(st StragglerStat) {
	m.mu.Lock()
	m.latest = st
	m.has = true
	m.epochs++
	m.mu.Unlock()
	if m.watch != nil {
		fmt.Fprintln(m.watch, "mp: "+st.String())
	}
}

// telemetry replaces worker's substrate snapshot. A respawned worker's
// counters restart from zero, which a scraper reads as a counter reset.
// Called from the coordinator event loop.
func (m *FleetMonitor) telemetry(worker int, t obs.ProcessTelemetry) {
	m.mu.Lock()
	m.workers[worker] = t
	m.mu.Unlock()
}

// Finish folds a completed launch's departure census into the monitor: the
// attempt count, the clean/crash split, the clock-alignment bound, and the
// per-classification worker exit tally.
func (m *FleetMonitor) Finish(res *LaunchResult) {
	if res == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.attempts = int64(res.Attempts)
	m.clean = int64(res.CleanDepartures)
	// Every failed attempt ended in either a goodbye drain or a crash; the
	// successful attempt (when there was one) ended in neither.
	failed := int64(res.Attempts)
	if res.Vectors != nil {
		failed--
	}
	if m.crash = failed - m.clean; m.crash < 0 {
		m.crash = 0
	}
	m.clockErr = res.ClockErrNS
	for k, v := range res.ExitTally() {
		m.exits[k] += v
	}
}

// Latest returns the most recent straggler summary.
func (m *FleetMonitor) Latest() (StragglerStat, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.latest, m.has
}

// WriteOpenMetrics emits the monitor's families in OpenMetrics text form:
// the declpat_fleet_* families, then every worker's substrate families
// labelled process="worker-<i>" (obs.WriteProcessTelemetry).
func (m *FleetMonitor) WriteOpenMetrics(w io.Writer) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	om := obs.NewOMWriter(w)

	om.Family("declpat_fleet_epochs_summarized_total", "counter",
		"Epochs for which every rank's kernel span arrived and an imbalance summary was emitted.")
	om.SampleInt("declpat_fleet_epochs_summarized_total", nil, m.epochs)
	if m.has {
		om.Family("declpat_fleet_epoch_imbalance", "gauge",
			"Last summarized epoch's kernel-time imbalance (max/mean; 1.0 = perfectly balanced).")
		om.Sample("declpat_fleet_epoch_imbalance", nil, m.latest.Imbalance)
		om.Family("declpat_fleet_epoch_slow_rank", "gauge",
			"Last summarized epoch's slowest (straggler) rank.")
		om.SampleInt("declpat_fleet_epoch_slow_rank", nil, int64(m.latest.SlowRank))
		om.Family("declpat_fleet_epoch_kernel_seconds", "gauge",
			"Last summarized epoch's per-rank kernel time.")
		ranks := make([]int, 0, len(m.latest.PerRank))
		for rank := range m.latest.PerRank {
			ranks = append(ranks, rank)
		}
		sort.Ints(ranks)
		for _, rank := range ranks {
			om.Sample("declpat_fleet_epoch_kernel_seconds",
				[]string{"rank", strconv.Itoa(rank)}, float64(m.latest.PerRank[rank])/1e9)
		}
	}

	om.Family("declpat_fleet_attempts_total", "counter", "Fleet attempts (1 = no restart was needed).")
	om.SampleInt("declpat_fleet_attempts_total", nil, m.attempts)
	om.Family("declpat_fleet_clean_departures_total", "counter",
		"Attempts ended by a goodbye drain rather than a crash.")
	om.SampleInt("declpat_fleet_clean_departures_total", nil, m.clean)
	om.Family("declpat_fleet_crash_departures_total", "counter",
		"Attempts ended by a worker crash (heartbeat expiry or connection loss).")
	om.SampleInt("declpat_fleet_crash_departures_total", nil, m.crash)
	if m.clockErr > 0 {
		om.Family("declpat_fleet_clock_err_seconds", "gauge",
			"Largest clock-offset error bound any worker reported (fleet-timeline alignment uncertainty).")
		om.Sample("declpat_fleet_clock_err_seconds", nil, float64(m.clockErr)/1e9)
	}
	if len(m.exits) > 0 {
		om.Family("declpat_fleet_worker_exits_total", "counter",
			"Reaped worker exits across all attempts, by classification.")
		kinds := make([]string, 0, len(m.exits))
		for k := range m.exits {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			om.SampleInt("declpat_fleet_worker_exits_total", []string{"exit", k}, int64(m.exits[k]))
		}
	}

	workers := make([]int, 0, len(m.workers))
	for w := range m.workers {
		workers = append(workers, w)
	}
	sort.Ints(workers)
	procs := make([]obs.ProcessTelemetry, len(workers))
	for i, w := range workers {
		procs[i] = m.workers[w]
	}
	obs.WriteProcessTelemetry(om, procs)
	return om.Close()
}
