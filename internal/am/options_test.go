package am

import (
	"testing"
	"time"
)

func TestNewWithOptions(t *testing.T) {
	fp := &FaultPlan{Drop: 0.05, Seed: 7}
	u := New(3,
		WithThreads(2),
		WithCoalesce(16),
		WithDetector(DetectorFourCounter),
		WithFaultPlan(fp),
		WithRecovery(),
		WithMaxRecoveries(3),
		WithTraceCapacity(1024),
		WithLineage(LineageOn),
		WithTiming(),
		WithWatchdog(30*time.Second),
	)
	if u.Ranks() != 3 {
		t.Fatalf("ranks = %d, want 3", u.Ranks())
	}
	c := u.cfg
	if c.ThreadsPerRank != 2 || c.CoalesceSize != 16 || c.Detector != DetectorFourCounter ||
		c.FaultPlan != fp || !c.Recovery || c.MaxRecoveries != 3 ||
		c.TraceCapacity != 1024 || c.Lineage != LineageOn || !c.Timing ||
		c.Watchdog != 30*time.Second {
		t.Fatalf("options not applied: %+v", c)
	}
}
