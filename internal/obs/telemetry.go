package obs

// GaugeValue is a gauge's current value plus its high-water mark.
type GaugeValue struct {
	Cur int64 `json:"cur"`
	Max int64 `json:"max"`
}

// ProcessTelemetry is one process's metric export: the unit a fleet worker
// ships to its launcher over the control plane, and the unit
// WriteProcessTelemetry serves. All maps are keyed by series name;
// histograms carry their bucket bounds so the receiver needs no
// out-of-band schema agreement.
type ProcessTelemetry struct {
	Process  string                  `json:"process"`             // series label, e.g. "coordinator", "worker-2"
	PID      int                     `json:"pid,omitempty"`       // OS pid, for per-process breakdowns
	UptimeNS int64                   `json:"uptime_ns,omitempty"` // ns since the process's obs clock started
	Counters map[string]int64        `json:"counters,omitempty"`
	Gauges   map[string]GaugeValue   `json:"gauges,omitempty"`
	Phases   map[string]HistSnapshot `json:"phases,omitempty"` // phase name -> histogram
}

// WriteProcessTelemetry writes the per-process substrate families: one
// counter family per counter name in the union of procs' counters, a
// current-value and a peak gauge family per gauge name, and one phase
// duration histogram family (nanosecond observations exported in seconds).
// Every sample carries a process="<Process>" label, so a scraper sums a
// fleet's series itself. Families appear in sorted name order and samples
// in procs order; om stays open for the caller's remaining families.
func WriteProcessTelemetry(om *OMWriter, procs []ProcessTelemetry) {
	names := map[string]bool{}
	for _, p := range procs {
		for k := range p.Counters {
			names[k] = true
		}
	}
	for _, name := range SortedKeys(names) {
		fam := "declpat_" + MetricName(name) + "_total"
		om.Family(fam, "counter", "Substrate counter "+name+".")
		for _, p := range procs {
			if v, ok := p.Counters[name]; ok {
				om.SampleInt(fam, []string{"process", p.Process}, v)
			}
		}
	}

	gnames := map[string]bool{}
	for _, p := range procs {
		for k := range p.Gauges {
			gnames[k] = true
		}
	}
	for _, name := range SortedKeys(gnames) {
		fam := "declpat_" + MetricName(name)
		om.Family(fam, "gauge", "Substrate gauge "+name+" (current value).")
		for _, p := range procs {
			if v, ok := p.Gauges[name]; ok {
				om.SampleInt(fam, []string{"process", p.Process}, v.Cur)
			}
		}
		om.Family(fam+"_peak", "gauge", "Substrate gauge "+name+" (high-water mark).")
		for _, p := range procs {
			if v, ok := p.Gauges[name]; ok {
				om.SampleInt(fam+"_peak", []string{"process", p.Process}, v.Max)
			}
		}
	}

	hasPhases := false
	for _, p := range procs {
		if len(p.Phases) > 0 {
			hasPhases = true
			break
		}
	}
	if hasPhases {
		const fam = "declpat_phase_duration_seconds"
		om.Family(fam, "histogram", "Epoch phase durations by process and phase (collect/build_csr/kernel/emit/barrier/recovery).")
		for _, p := range procs {
			for _, phase := range SortedKeys(p.Phases) {
				om.Hist(fam, []string{"process", p.Process, "phase", phase}, p.Phases[phase], 1e-9)
			}
		}
	}
}
