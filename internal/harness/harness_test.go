package harness

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "name", "count", "time")
	tb.Add("alpha", 12, 1500*time.Microsecond)
	tb.Add("beta-longer", 3456, 2*time.Millisecond)
	out := tb.String()
	if !strings.Contains(out, "## Demo") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Title, blank, header, separator, two rows.
	if len(lines) != 5 && len(lines) != 6 {
		t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
	}
	if tb.Rows() != 2 {
		t.Fatalf("Rows=%d", tb.Rows())
	}
	// Numeric cells right-align: "12" should be preceded by spaces up to
	// the width of "count".
	if !strings.Contains(out, "   12") {
		t.Errorf("count not right-aligned:\n%s", out)
	}
}

func TestTableArityPanic(t *testing.T) {
	tb := NewTable("x", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong arity")
		}
	}()
	tb.Add(1)
}

func TestRatio(t *testing.T) {
	if Ratio(6, 3) != "2.00x" {
		t.Errorf("got %s", Ratio(6, 3))
	}
	if Ratio(1, 0) != "-" {
		t.Errorf("got %s", Ratio(1, 0))
	}
}

func TestMinMed(t *testing.T) {
	n := 0
	min, med := MinMed(5, func() { n++ })
	if n != 5 {
		t.Fatalf("ran %d times", n)
	}
	if min > med {
		t.Fatalf("min %v > med %v", min, med)
	}
}

func TestServeDebug(t *testing.T) {
	addr, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	// expvar always publishes cmdline and memstats.
	if _, ok := vars["memstats"]; !ok {
		t.Fatalf("/debug/vars lacks memstats: %s", body)
	}
	if resp, err = http.Get("http://" + addr + "/debug/pprof/cmdline"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof endpoint returned %d", resp.StatusCode)
	}
}
