package obs

import (
	"strings"
	"testing"
)

func TestOMWriterFormat(t *testing.T) {
	var b strings.Builder
	o := NewOMWriter(&b)
	o.Family("declpat_msgs_total", "counter", "messages sent")
	o.SampleInt("declpat_msgs_total", []string{"process", "coordinator"}, 42)
	o.Family("declpat_depth", "gauge", "")
	o.Sample("declpat_depth", nil, 1.5)
	if err := o.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got := b.String()
	want := "# HELP declpat_msgs_total messages sent\n" +
		"# TYPE declpat_msgs_total counter\n" +
		"declpat_msgs_total{process=\"coordinator\"} 42\n" +
		"# TYPE declpat_depth gauge\n" +
		"declpat_depth 1.5\n" +
		"# EOF\n"
	if got != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestOMWriterHistCumulativeBuckets(t *testing.T) {
	s := HistSnapshot{
		Bounds: []int64{500, 1000},
		Counts: []int64{3, 2, 1}, // per-bucket; exposition must be cumulative
		Count:  6,
		Sum:    5500,
	}
	var b strings.Builder
	o := NewOMWriter(&b)
	o.Family("declpat_phase_duration_seconds", "histogram", "")
	o.Hist("declpat_phase_duration_seconds", []string{"phase", "kernel"}, s, 1e-3)
	if err := o.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got := b.String()
	for _, line := range []string{
		`declpat_phase_duration_seconds_bucket{phase="kernel",le="0.5"} 3`,
		`declpat_phase_duration_seconds_bucket{phase="kernel",le="1"} 5`,
		`declpat_phase_duration_seconds_bucket{phase="kernel",le="+Inf"} 6`,
		`declpat_phase_duration_seconds_sum{phase="kernel"} 5.5`,
		`declpat_phase_duration_seconds_count{phase="kernel"} 6`,
	} {
		if !strings.Contains(got, line+"\n") {
			t.Fatalf("missing line %q in:\n%s", line, got)
		}
	}
	// +Inf must come from Count (includes overflow), after the bounded buckets.
	if strings.Index(got, `le="+Inf"`) < strings.Index(got, `le="1"`) {
		t.Fatalf("+Inf bucket must be last:\n%s", got)
	}
}

func TestOMWriterLabelEscaping(t *testing.T) {
	var b strings.Builder
	o := NewOMWriter(&b)
	o.SampleInt("m", []string{"path", `C:\x "y"` + "\n"}, 1)
	if err := o.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if want := `m{path="C:\\x \"y\"\n"} 1`; !strings.Contains(b.String(), want) {
		t.Fatalf("escaping wrong: got %q, want it to contain %q", b.String(), want)
	}
}

func TestMetricName(t *testing.T) {
	for in, want := range map[string]string{
		"msgs_sent":    "msgs_sent",
		"queue.active": "queue_active",
		"99th-pct":     "_99th_pct",
		"büld":         "b_ld",
	} {
		if got := MetricName(in); got != want {
			t.Fatalf("MetricName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSortedKeys(t *testing.T) {
	got := SortedKeys(map[string]int{"c": 1, "a": 2, "b": 3})
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("SortedKeys = %v", got)
	}
}
