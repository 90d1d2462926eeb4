package mp

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"declpat/internal/am"
	"declpat/internal/obs"
)

func TestFrameRoundTrip(t *testing.T) {
	bodies := map[byte][]byte{
		fHello:      hello{Worker: 3}.encode(),
		fBarrier:    encodeTag(-1),
		fGather:     gatherMsg{Seq: 7, Vals: []int64{1, -2, 3}}.encode(),
		fWaveStart:  encodeWave(am.WaveSample{Sent: 10, Recv: 9, Active: 1}),
		fAbort:      abortMsg{Clean: true, Reason: "worker 1 departed cleanly"}.encode(),
		fResult:     resultMsg{Vec: 1, VertexLo: 64, Vals: []int64{5, 6}}.encode(),
		fResultDone: nil,
	}
	var buf bytes.Buffer
	for kind, body := range bodies {
		buf.Reset()
		if err := writeFrame(&buf, kind, body); err != nil {
			t.Fatalf("write %s: %v", kindName(kind), err)
		}
		gotKind, gotBody, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("read %s: %v", kindName(kind), err)
		}
		if gotKind != kind || !bytes.Equal(gotBody, body) {
			t.Fatalf("%s round trip: got kind %s body %v, want body %v", kindName(kind), kindName(gotKind), gotBody, body)
		}
	}
}

func TestFrameCorruptionIsDecodeError(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, fBarrier, encodeTag(4)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-3] ^= 0x40 // damage the CRC seal
	_, _, err := readFrame(bytes.NewReader(raw))
	if !errors.Is(err, ErrDecode) {
		t.Fatalf("corrupted frame: got %v, want ErrDecode", err)
	}
}

func TestFrameTruncationIsPeerClosed(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, fGather, gatherMsg{Seq: 1, Vals: []int64{9}}.encode()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	_, _, err := readFrame(bytes.NewReader(raw[:len(raw)-4]))
	if !errors.Is(err, ErrPeerClosed) {
		t.Fatalf("truncated frame: got %v, want ErrPeerClosed", err)
	}
	_, _, err = readFrame(bytes.NewReader(nil))
	if !errors.Is(err, ErrPeerClosed) {
		t.Fatalf("empty stream: got %v, want ErrPeerClosed", err)
	}
}

func TestHelloValidation(t *testing.T) {
	h := hello{Worker: 2}
	got, err := decodeHello(h.encode())
	if err != nil || got != h {
		t.Fatalf("hello round trip: got %+v, %v", got, err)
	}
	bad := h.encode()
	bad[len(bad)-5] = protoVersion + 1 // version byte precedes the worker u32
	if _, err := decodeHello(bad); !errors.Is(err, ErrDecode) {
		t.Fatalf("version mismatch: got %v, want ErrDecode", err)
	}
}

func TestWelcomeRoundTrip(t *testing.T) {
	w := welcome{
		RunID: 0xdeadbeef, Workers: 4, Ranks: 8, Lo: 2, Hi: 4,
		RestartEpoch: 3, HaveCkpt: true,
		Log:        [][]int64{{1, 2}, {3}},
		CkptDir:    "/tmp/ckpt",
		WorkerSeed: 99, KillEpoch: 2, KillMode: killBody,
		JobJSON: []byte(`{"algo":"bfs"}`),
	}
	got, err := decodeWelcome(w.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.RunID != w.RunID || got.Lo != w.Lo || got.Hi != w.Hi ||
		got.RestartEpoch != w.RestartEpoch || !got.HaveCkpt ||
		len(got.Log) != 2 || got.Log[0][1] != 2 ||
		got.CkptDir != w.CkptDir || got.WorkerSeed != w.WorkerSeed ||
		got.KillEpoch != 2 || got.KillMode != killBody ||
		string(got.JobJSON) != string(w.JobJSON) {
		t.Fatalf("welcome round trip: got %+v, want %+v", got, w)
	}
}

func TestRankRange(t *testing.T) {
	// 10 ranks over 4 workers: contiguous, covering, ascending.
	prev := 0
	total := 0
	for w := 0; w < 4; w++ {
		lo, hi := rankRange(10, 4, w)
		if lo != prev {
			t.Fatalf("worker %d: lo=%d, want %d", w, lo, prev)
		}
		if hi <= lo {
			t.Fatalf("worker %d: empty range [%d,%d)", w, lo, hi)
		}
		prev = hi
		total += hi - lo
	}
	if total != 10 {
		t.Fatalf("ranges cover %d ranks, want 10", total)
	}
}

func TestJobSpecValidation(t *testing.T) {
	j := JobSpec{Algo: "bfs"}
	if err := j.Normalize(); err != nil {
		t.Fatal(err)
	}
	if j.Ranks == 0 || j.Scale == 0 || j.Network != "tcp" {
		t.Fatalf("defaults not applied: %+v", j)
	}
	bad := JobSpec{Algo: "pagerank"}
	if err := bad.Normalize(); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	badNet := JobSpec{Algo: "bfs", Network: "sctp"}
	if err := badNet.Normalize(); err == nil {
		t.Fatal("unknown network accepted")
	}
	if _, err := unmarshalJob([]byte("{not json")); !errors.Is(err, ErrDecode) {
		t.Fatalf("bad job JSON: got %v, want ErrDecode", err)
	}
}

func sampleTelemetry() obs.ProcessTelemetry {
	h := obs.HistSnapshot{Bounds: []int64{10, 100}, Counts: []int64{2, 1, 1}, Count: 4, Sum: 260, Max: 150}
	return obs.ProcessTelemetry{
		Process:  "coordinator",
		PID:      4242,
		UptimeNS: 7e9,
		Counters: map[string]int64{"msgs_sent": 3, "handlers_run": 3},
		Gauges:   map[string]obs.GaugeValue{"rel_pending": {Cur: 1, Max: 2}},
		Phases:   map[string]obs.HistSnapshot{"kernel": h},
	}
}

func TestTelemetryFrameRoundTrip(t *testing.T) {
	want := sampleTelemetry()
	body, err := encodeTelemetry(want)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeFrame(&buf, fTelemetry, body); err != nil {
		t.Fatal(err)
	}
	kind, body, err := readFrame(&buf)
	if err != nil || kind != fTelemetry {
		t.Fatalf("read: kind %s, %v", kindName(kind), err)
	}
	got, err := decodeTelemetry(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.Process != want.Process || got.PID != want.PID || got.UptimeNS != want.UptimeNS {
		t.Fatalf("identity fields corrupted: got %+v", got)
	}
	if got.Counters["msgs_sent"] != 3 || got.Counters["handlers_run"] != 3 {
		t.Fatalf("counters corrupted: %v", got.Counters)
	}
	if g := got.Gauges["rel_pending"]; g.Cur != 1 || g.Max != 2 {
		t.Fatalf("gauge corrupted: %+v", g)
	}
	h := got.Phases["kernel"]
	if h.Count != 4 || h.Sum != 260 || h.Max != 150 || len(h.Bounds) != 2 || h.Counts[2] != 1 {
		t.Fatalf("phase histogram corrupted: %+v", h)
	}
	if _, err := decodeTelemetry([]byte("{not json")); !errors.Is(err, ErrDecode) {
		t.Fatalf("bad telemetry JSON: got %v, want ErrDecode", err)
	}
}

// decodeBody runs the body decoder the coordinator or client applies to a
// frame of this kind; kinds without a body decoder accept any body.
func decodeBody(kind byte, body []byte) error {
	var err error
	switch kind {
	case fHello:
		_, err = decodeHello(body)
	case fWelcome:
		_, err = decodeWelcome(body)
	case fAddrSet, fAddrTable:
		_, err = decodeStrings(body)
	case fBarrier, fBarrierRelease:
		_, err = decodeTag(body)
	case fGather, fGatherRelease:
		_, err = decodeGather(body)
	case fWaveStart, fWaveResult:
		_, err = decodeWave(body)
	case fWaveReply:
		_, err = decodeWaveReply(body)
	case fFault:
		_, err = decodeFault(body)
	case fAbort:
		_, err = decodeAbort(body)
	case fResult:
		_, err = decodeResult(body)
	case fClockPing, fClockPong:
		_, err = decodeClock(body)
	case fTrace:
		_, err = decodeTrace(body)
	case fTelemetry:
		_, err = decodeTelemetry(body)
	case fWavePoll, fFinish, fGoodbye, fGoodbyeAck, fResultDone, fHeartbeat:
	default:
		err = fmt.Errorf("%w: unexpected %s frame", ErrDecode, kindName(kind))
	}
	return err
}

// FuzzControlFrame feeds outside bytes to the control-plane decoders: each
// input is read as a frame stream (readFrame, then the kind's body decoder)
// and, because random bytes rarely carry a valid CRC seal, also taken
// directly as kind|body. Nothing may panic, and every failure must be one of
// the two classified sentinels.
func FuzzControlFrame(f *testing.F) {
	tel, err := encodeTelemetry(sampleTelemetry())
	if err != nil {
		f.Fatal(err)
	}
	bodies := map[byte][]byte{
		fHello: hello{Worker: 3}.encode(),
		fWelcome: welcome{RunID: 1, Workers: 2, Ranks: 4, Lo: 2, Hi: 4, HaveCkpt: true,
			Log: [][]int64{{1, 2}}, CkptDir: "/ckpt", JobJSON: []byte(`{"algo":"bfs"}`)}.encode(),
		fAddrSet:        encodeStrings([]string{"127.0.0.1:1"}),
		fAddrTable:      encodeStrings([]string{"127.0.0.1:1", "127.0.0.1:2"}),
		fBarrier:        encodeTag(2),
		fBarrierRelease: encodeTag(-1),
		fGather:         gatherMsg{Seq: 7, Vals: []int64{1, -2}}.encode(),
		fGatherRelease:  gatherMsg{Seq: 7, Vals: []int64{1, -2, 3, 4}}.encode(),
		fWaveStart:      encodeWave(am.WaveSample{Sent: 10, Recv: 9, Active: 1}),
		fWavePoll:       nil,
		fWaveReply:      waveReply{OK: true, Sample: am.WaveSample{Sent: 4, Recv: 4}}.encode(),
		fWaveResult:     encodeWave(am.WaveSample{Sent: 14, Recv: 13}),
		fFinish:         nil,
		fFault:          encodeFault(am.RankFault{Kind: am.FaultTransport, Rank: 1, Epoch: 2, Detail: "link 0->1"}),
		fAbort:          abortMsg{Clean: true, Reason: "worker 1 departed cleanly"}.encode(),
		fGoodbye:        nil,
		fGoodbyeAck:     nil,
		fResult:         resultMsg{Vec: 1, VertexLo: 64, Vals: []int64{5, 6}}.encode(),
		fResultDone:     nil,
		fHeartbeat:      nil,
		fClockPing:      clockMsg{T1: 100}.encode(),
		fClockPong:      clockMsg{T1: 100, Remote: 250}.encode(),
		fTrace:          traceMsg{Worker: 1, Lo: 2, Hi: 4, Offset: -5, ErrBound: 3, Final: true, Records: []byte("[]")}.encode(),
		fTelemetry:      tel,
	}
	for kind := fHello; kind <= fTelemetry; kind++ {
		body := bodies[kind]
		var buf bytes.Buffer
		if err := writeFrame(&buf, kind, body); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(append([]byte{kind}, body...))
	}
	// A string table claiming 2^26-1 entries in a 4-byte body must be
	// rejected before the count sizes an allocation (1 GiB of headers).
	f.Add([]byte{fAddrTable, 0xff, 0xff, 0xff, 0x03})
	classified := func(t *testing.T, what string, err error) {
		if err != nil && !errors.Is(err, ErrDecode) && !errors.Is(err, ErrPeerClosed) {
			t.Fatalf("%s: unclassified error %v", what, err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, body, err := readFrame(bytes.NewReader(data))
		classified(t, "readFrame", err)
		if err == nil {
			classified(t, kindName(kind)+" body", decodeBody(kind, body))
		}
		if len(data) > 0 {
			classified(t, kindName(data[0])+" payload", decodeBody(data[0], data[1:]))
		}
	})
}
