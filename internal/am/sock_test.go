package am

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// requireLoopback skips socket tests in environments that forbid binding
// loopback sockets (restricted sandboxes).
func requireLoopback(t *testing.T) {
	t.Helper()
	ln, err := netListenLoopback()
	if err != nil {
		t.Skipf("loopback sockets unavailable: %v", err)
	}
	ln.Close()
}

func netListenLoopback() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}

// fastSockOptions returns socket options tuned for tests: millisecond-scale
// heartbeats and reconnect backoff so failure machinery exercises quickly.
// Real-time deadlines stretch by raceTimingScale under the race detector.
func fastSockOptions(network string) SockOptions {
	return SockOptions{
		Network:       network,
		Heartbeat:     5 * time.Millisecond * raceTimingScale,
		Liveness:      25 * time.Millisecond * raceTimingScale,
		ReconnectBase: 2 * time.Millisecond,
		ReconnectMax:  20 * time.Millisecond,
		TickInterval:  200 * time.Microsecond,
	}
}

// runSockChatter runs the two-epoch forwarding workload from fault_test.go
// over the given config (the chatter type registered with the fixed wire
// codec, as the socket backend requires) and returns per-message handle
// counts plus the finished universe.
func runSockChatter(t *testing.T, cfg Config, perRank int) ([]int64, *Universe) {
	t.Helper()
	u := NewUniverse(cfg)
	n := cfg.Ranks
	total := 2 * n * perRank
	counts := make([]int64, total)
	var mt *MsgType[chatterPayload]
	mt = Register(u, "chatter", func(r *Rank, m chatterPayload) {
		atomic.AddInt64(&counts[m.ID], 1)
		if m.Hop == 0 {
			mt.SendTo(r, (r.ID()+1)%r.N(), chatterPayload{ID: m.ID + int64(n*perRank), Hop: 1})
		}
	}).WithWire()
	err := u.Run(func(r *Rank) {
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
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return counts, u
}

// TestSockExactlyOnce proves the headline semantics claim of the transport
// seam: the same workload over TCP loopback and Unix-domain sockets, on both
// detectors, handles every message exactly once — identical to the
// in-process backend.
func TestSockExactlyOnce(t *testing.T) {
	requireLoopback(t)
	for _, network := range []string{"tcp", "unix"} {
		for _, det := range []DetectorKind{DetectorAtomic, DetectorFourCounter} {
			t.Run(fmt.Sprintf("%s/%s", network, det), func(t *testing.T) {
				cfg := Config{Ranks: 3, ThreadsPerRank: 2, CoalesceSize: 4, Detector: det,
					Transport: SockTransport(fastSockOptions(network))}
				counts, u := runSockChatter(t, cfg, 48)
				checkExactlyOnce(t, counts, 0)
				m := u.Metrics()
				want := "sock-tcp"
				if network == "unix" {
					want = "sock-unix"
				}
				if m.Transport != want {
					t.Fatalf("Metrics().Transport = %q, want %q", m.Transport, want)
				}
				if m.Counters.WireBytes == 0 {
					t.Fatalf("expected wire bytes on a socket transport, got 0")
				}
			})
		}
	}
}

// TestSockDisconnectReconnect injects connection kills (a one-shot
// disconnect plus a flapping link) and asserts the transport reconnected,
// requeued the frames lost in the dead connections, and still delivered
// everything exactly once.
func TestSockDisconnectReconnect(t *testing.T) {
	requireLoopback(t)
	opt := fastSockOptions("tcp")
	opt.Faults = &SockFaultPlan{
		Disconnects: []SockDisconnect{{Src: 0, Dest: 1, AfterFrames: 3}},
		Flaps:       []SockFlap{{Src: 1, Dest: 2, Period: 5, Count: 3}},
	}
	cfg := Config{Ranks: 3, ThreadsPerRank: 2, CoalesceSize: 4,
		Transport: SockTransport(opt)}
	counts, u := runSockChatter(t, cfg, 64)
	checkExactlyOnce(t, counts, 0)
	s := u.Stats.Snapshot()
	if s.Reconnects < 1 {
		t.Fatalf("expected reconnects after injected disconnects, got %+v", s)
	}
	if s.FramesDropped < 1 {
		t.Fatalf("killed frames must be counted dropped, got %+v", s)
	}
	m := u.Metrics()
	if m.Wire.Reconnects != s.Reconnects || m.Wire.FramesRequeued != s.FramesRequeued {
		t.Fatalf("Metrics().Wire out of sync with counters: %+v vs %+v", m.Wire, s)
	}
}

// sockRingSum runs a one-epoch ring workload over a socket transport with a
// checkpointed per-rank accumulator (handler results survive epoch rollback
// and replay exactly once). gate, when non-nil, is waited on by rank 0's
// epoch body, holding the epoch open until the test has injected its
// failure. Returns the universe and the accumulated total; the fault-free
// expectation is ringWant(ranks, per).
func sockRingSum(t *testing.T, cfg Config, per int, gate <-chan struct{}) (*Universe, int64) {
	t.Helper()
	u := NewUniverse(cfg)
	ck := newSliceCkpt(u.Ranks())
	u.RegisterCheckpointer(ck)
	mt := Register(u, "val", func(r *Rank, m chatterPayload) {
		ck.add(r.ID(), m.ID)
	}).WithWire()
	err := u.Run(func(r *Rank) {
		r.Epoch(func(ep *Epoch) {
			for i := 0; i < per; i++ {
				mt.SendTo(r, (r.ID()+1)%r.N(), chatterPayload{ID: int64(i + 1)})
			}
			if gate != nil && r.ID() == 0 {
				<-gate
			}
		})
	})
	if err != nil {
		for i, f := range u.FaultLog() {
			t.Logf("fault[%d]: kind=%s rank=%d epoch=%d detail=%s", i, f.Kind, f.Rank, f.Epoch, f.Detail)
		}
		t.Logf("counters: %+v", u.Stats.Snapshot())
		t.Fatalf("Run: %v", err)
	}
	return u, ck.sum()
}

// TestSockPartitionEscalatesToRecovery black-holes one direction with no
// closing frame: heartbeats vanish too, so the receiver's liveness deadline
// trips, and the sender's retransmits die until the retransmit ceiling
// raises a rank fault. With Recovery on, the epoch must roll back, the
// recovery must heal the partition window, and the replay must produce the
// exact fault-free result — a severed link costs an epoch attempt, never
// correctness and never a hang.
func TestSockPartitionEscalatesToRecovery(t *testing.T) {
	requireLoopback(t)
	opt := fastSockOptions("tcp")
	opt.Heartbeat = 3 * time.Millisecond * raceTimingScale
	opt.Liveness = 15 * time.Millisecond * raceTimingScale
	opt.Faults = &SockFaultPlan{
		Partitions: []SockPartition{{Src: 0, Dest: 1, FromFrame: 1, ToFrame: 0}}, // open-ended
	}
	// The retransmit ceiling (sum of the backoff schedule) must outlast a
	// worst-case reconnect cycle — liveness expiry on the receiver, a write
	// error surfacing on the sender, capped backoff, dial, handshake,
	// requeue — or the post-heal replay re-faults and burns recoveries.
	cfg := Config{Ranks: 2, ThreadsPerRank: 1, CoalesceSize: 4,
		Recovery: true, MaxRecoveries: 20,
		FaultPlan: &FaultPlan{RetransmitBase: 2, MaxAttempts: 12, BackoffJitter: 0.25},
		Transport: SockTransport(opt)}
	u, got := sockRingSum(t, cfg, 64, nil)
	if want := ringWant(2, 64); got != want {
		t.Fatalf("ring sum = %d after partition recovery, want %d", got, want)
	}
	s := u.Stats.Snapshot()
	if s.Recoveries < 1 || s.EpochAborts < 1 {
		t.Fatalf("open-ended partition must force an epoch rollback, got %+v", s)
	}
	if s.HeartbeatMisses < 1 {
		t.Fatalf("a black-holed direction must trip the liveness deadline, got %+v", s)
	}
	if s.FramesDropped < 1 {
		t.Fatalf("black-holed frames must be counted dropped, got %+v", s)
	}
}

// TestSockHeartbeatsKeepQuietLinksAlive holds an epoch open with no traffic
// for several liveness windows: heartbeats alone must keep every connection
// alive (no misses, no reconnects).
func TestSockHeartbeatsKeepQuietLinksAlive(t *testing.T) {
	requireLoopback(t)
	opt := fastSockOptions("tcp")
	cfg := Config{Ranks: 2, ThreadsPerRank: 1, Transport: SockTransport(opt)}
	u := NewUniverse(cfg)
	mt := Register(u, "ping", func(r *Rank, m chatterPayload) {}).WithWire()
	err := u.Run(func(r *Rank) {
		r.Epoch(func(ep *Epoch) {
			mt.SendTo(r, (r.ID()+1)%r.N(), chatterPayload{ID: int64(r.ID())})
			time.Sleep(4 * opt.Liveness)
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	s := u.Stats.Snapshot()
	if s.HeartbeatMisses != 0 || s.Reconnects != 0 {
		t.Fatalf("quiet links must stay alive on heartbeats alone, got %+v", s)
	}
}

// TestSockReconnectBudgetEscalatesAndRecovers is the reconnect-budget
// acceptance test on Unix-domain sockets. Rank 1's socket file is renamed
// away (its listener stays up, but every new dial fails with ENOENT) and
// the live 0->1 connection is killed by the fault plan, so reconnect
// attempts fail until the budget is exhausted. That must escalate to a
// FaultTransport rank fault and checkpoint/restart, not a hung epoch. Once
// the epoch has aborted, the file is renamed back and the replay's redial
// (healEpoch) reconnects and completes exactly once.
func TestSockReconnectBudgetEscalatesAndRecovers(t *testing.T) {
	requireLoopback(t)
	opt := fastSockOptions("unix")
	opt.Dir = t.TempDir()
	opt.ReconnectBudget = 3
	opt.Faults = &SockFaultPlan{Disconnects: []SockDisconnect{{Src: 0, Dest: 1, AfterFrames: 1}}}
	sock := filepath.Join(opt.Dir, "rank-1.sock")
	cfg := Config{Ranks: 2, ThreadsPerRank: 1, CoalesceSize: 4,
		Recovery: true, MaxRecoveries: 1000,
		FaultPlan: &FaultPlan{RetransmitBase: 2, MaxAttempts: 12, BackoffJitter: 0.25},
		Transport: SockTransport(opt)}

	// Event-driven failure injection: every rank parks at the top of its
	// epoch until rank 1's socket file is gone, so the disconnect (which
	// fires on the first data or ack frame on 0->1, heartbeats excluded)
	// always lands after the eager dials and always faces a missing file.
	// The file comes back only after the exhausted budget aborted an epoch.
	const per = 64
	var startedOnce sync.Once
	started := make(chan struct{})
	gate := make(chan struct{})
	done := make(chan struct{})     // Run returned
	restored := make(chan struct{}) // the injector goroutine exited
	var u *Universe
	go func() {
		defer close(restored)
		select {
		case <-started:
		case <-done:
			return
		}
		if err := os.Rename(sock, sock+".away"); err != nil {
			t.Errorf("renaming %s away: %v", sock, err)
		}
		close(gate)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
	wait:
		for u.Stats.EpochAborts() == 0 {
			select {
			case <-done:
				break wait
			case <-tick.C:
			}
		}
		if err := os.Rename(sock+".away", sock); err != nil {
			t.Errorf("renaming %s back: %v", sock, err)
		}
	}()

	u = NewUniverse(cfg)
	ck := newSliceCkpt(u.Ranks())
	u.RegisterCheckpointer(ck)
	mt := Register(u, "val", func(r *Rank, m chatterPayload) {
		ck.add(r.ID(), m.ID)
	}).WithWire()
	err := u.Run(func(r *Rank) {
		r.Epoch(func(ep *Epoch) {
			startedOnce.Do(func() { close(started) })
			<-gate
			for i := 1; i <= per; i++ {
				mt.SendTo(r, (r.ID()+1)%r.N(), chatterPayload{ID: int64(i)})
			}
		})
	})
	close(done)
	<-restored
	if err != nil {
		for i, f := range u.FaultLog() {
			t.Logf("fault[%d]: kind=%s rank=%d epoch=%d detail=%s", i, f.Kind, f.Rank, f.Epoch, f.Detail)
		}
		t.Logf("counters: %+v", u.Stats.Snapshot())
		t.Fatalf("Run: %v", err)
	}
	if got, want := ck.sum(), ringWant(2, per); got != want {
		t.Fatalf("ring sum = %d after reconnect-budget escalation + recovery, want %d", got, want)
	}
	s := u.Stats.Snapshot()
	if s.Recoveries < 1 || s.EpochAborts < 1 {
		t.Fatalf("an exhausted reconnect budget must cost an epoch attempt, got %+v", s)
	}
	if s.Reconnects < 1 {
		t.Fatalf("the replay must have reconnected once the socket file was back, got %+v", s)
	}
	var sawTransportFault bool
	for _, f := range u.FaultLog() {
		if f.Kind == FaultTransport {
			sawTransportFault = true
		}
	}
	if !sawTransportFault {
		t.Fatalf("exhausted reconnect budget must raise FaultTransport; fault log: %v", u.FaultLog())
	}
}
