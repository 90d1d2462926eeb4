package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// base anchors every timestamp the benchmark takes; now reads the monotonic
// clock, so spans from different goroutines share one time line.
var base = time.Now()

func now() int64 { return int64(time.Since(base)) }

// sinceBase converts a timestamp the program took to the benchmark clock.
func sinceBase(t time.Time) int64 { return int64(t.Sub(base)) }

// Span names. A setup span parents build, bind and am.start; a kernel span
// parents one call and one barrier span per rank; a query span parents its
// submit, queue, service and notify spans.
const (
	spanSetup   = "setup"
	spanBuild   = "distgraph.Build"
	spanBind    = "pattern.bind"
	spanStart   = "am.start"
	spanStop    = "am.stop"
	spanCall    = "rank.call"
	spanBarrier = "am.barrier"
	spanQuery   = "query"
	spanSubmit  = "query.submit"
	spanQueue   = "query.queue"
	spanService = "query.service"
	spanNotify  = "query.notify"
	kernelSpan  = "kernel." // + kernel name
)

// span is one traced interval. Op is the setup, kernel-run or query id;
// Rank is -1 for spans that belong to no rank.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Rank   int    `json:"rank"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory while the run measures; write dumps them once
// the run is over. A nil or disabled tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	on    bool
	spans []span
}

func newTracer(on bool) *tracer {
	t := &tracer{on: on}
	if on {
		t.spans = make([]span, 0, 1<<16)
	}
	return t
}

// add records a span and returns its id (0 when tracing is off).
func (t *tracer) add(parent int, name string, op int64, rank int, start, end int64) int {
	if t == nil || !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op, Rank: rank, Start: start, End: end})
	return id
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// partition splits each root span of one name into named parts plus an
// explicit residual: total = sum(parts) + other, exactly, per instance.
type partition struct {
	name  string
	parts []string
	total []int64   // one per instance, ns
	part  [][]int64 // [part][instance], ns
	other []int64
}

// meanMs returns the mean of xs in milliseconds (0 for none). Means, unlike
// medians, add up, so a partition's mean parts sum to its mean total.
func meanMs(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s int64
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs)) / 1e6
}

// String prints the partition's means: total = part + ... + other.
func (p *partition) String() string {
	s := fmt.Sprintf("%-14s n=%-5d %.3f ms =", p.name, len(p.total), meanMs(p.total))
	for i, name := range p.parts {
		s += fmt.Sprintf(" %s %.3f +", name, meanMs(p.part[i]))
	}
	return s + fmt.Sprintf(" other %.3f", meanMs(p.other))
}

// children indexes spans by parent id.
func children(spans []span) map[int][]span {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	return kids
}

// partitionBy builds the partition of every root span named root. split
// returns the parts of one root from its children, in the order of parts.
func partitionBy(spans []span, root string, parts []string, split func(root span, kids []span) []int64) *partition {
	p := &partition{name: root, parts: parts, part: make([][]int64, len(parts))}
	kids := children(spans)
	for _, s := range spans {
		if s.Name != root {
			continue
		}
		vals := split(s, kids[s.ID])
		rest := s.dur()
		for i, v := range vals {
			p.part[i] = append(p.part[i], v)
			rest -= v
		}
		p.total = append(p.total, s.dur())
		p.other = append(p.other, rest)
	}
	return p
}

// sumByName adds up the durations of the spans named name.
func sumByName(kids []span, name string) int64 {
	var d int64
	for _, k := range kids {
		if k.Name == name {
			d += k.dur()
		}
	}
	return d
}

// setupPartition: setup = build + bind + am.start + other.
func setupPartition(spans []span) *partition {
	parts := []string{spanBuild, spanBind, spanStart}
	return partitionBy(spans, spanSetup, parts, func(_ span, kids []span) []int64 {
		out := make([]int64, len(parts))
		for i, name := range parts {
			out[i] = sumByName(kids, name)
		}
		return out
	})
}

// kernelPartition: kernel run = slowest rank's call + barrier exit + other,
// where barrier exit runs from the last rank's call return to rank 0 leaving
// the post-run barrier (the root span's end).
func kernelPartition(spans []span, kernel string) *partition {
	return partitionBy(spans, kernelSpan+kernel, []string{"slowest_call", "barrier_exit"}, func(root span, kids []span) []int64 {
		var slowest, lastEnd int64
		for _, k := range kids {
			if k.Name == spanCall {
				slowest = max(slowest, k.dur())
				lastEnd = max(lastEnd, k.End)
			}
		}
		return []int64{slowest, root.End - lastEnd}
	})
}

// queryPartition: query = submit + queue wait + service + notify + other.
// The service stamps Queued inside Submit, so the submit and queue spans
// overlap by the tail of the Submit call and other is that overlap, negated.
func queryPartition(spans []span) *partition {
	parts := []string{spanSubmit, spanQueue, spanService, spanNotify}
	return partitionBy(spans, spanQuery, parts, func(_ span, kids []span) []int64 {
		out := make([]int64, len(parts))
		for i, name := range parts {
			out[i] = sumByName(kids, name)
		}
		return out
	})
}

// spanDurs returns the durations of the spans named name.
func spanDurs(spans []span, name string) []int64 {
	var out []int64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// msOf converts nanosecond samples to milliseconds.
func msOf(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, x := range ns {
		out[i] = float64(x) / 1e6
	}
	return out
}
