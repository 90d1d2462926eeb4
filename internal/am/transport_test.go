package am

import (
	"strings"
	"testing"
	"time"
)

// TestDefaultTransportIsChan pins the zero-config behavior: New without
// WithTransport selects the in-process channel backend, trusted mode (no
// synthesized fault plan), original semantics.
func TestDefaultTransportIsChan(t *testing.T) {
	u := New(2)
	if got := u.net.Name(); got != "chan" {
		t.Fatalf("default transport = %q, want chan", got)
	}
	if u.fp != nil {
		t.Fatalf("chan transport must not synthesize a fault plan")
	}
	if u.tickIntNs != 0 {
		t.Fatalf("chan transport tick interval = %d, want 0", u.tickIntNs)
	}
	if got := u.Metrics().Transport; got != "chan" {
		t.Fatalf("Metrics().Transport = %q, want chan", got)
	}
}

// TestWithTransportOption wires a transport through the functional-options
// constructor and checks the universe picked it up.
func TestWithTransportOption(t *testing.T) {
	u := New(2, WithTransport(ChanTransport()))
	if got := u.cfg.Transport.Name(); got != "chan" {
		t.Fatalf("WithTransport: got %q", got)
	}
	u = New(2, WithTransport(SockTransport(SockOptions{Network: "unix"})))
	if got := u.net.Name(); got != "sock-unix" {
		t.Fatalf("WithTransport(sock): got %q", got)
	}
	if u.fp == nil {
		t.Fatalf("sock transport must synthesize a reliable-mode fault plan")
	}
	if u.fp.BackoffJitter != defaultSockBackoffJitter {
		t.Fatalf("synthesized plan jitter = %v, want %v", u.fp.BackoffJitter, defaultSockBackoffJitter)
	}
}

// TestTransportReuseRejected: a Transport value binds to one universe only.
func TestTransportReuseRejected(t *testing.T) {
	tr := ChanTransport()
	u1 := New(1, WithTransport(tr))
	if err := u1.Run(func(r *Rank) {}); err != nil {
		t.Fatalf("first run: %v", err)
	}
	u2 := New(1, WithTransport(tr))
	err := u2.Run(func(r *Rank) {})
	if err == nil || !strings.Contains(err.Error(), "already bound") {
		t.Fatalf("second bind error = %v, want transport-reused", err)
	}
}

// TestSockRejectsNonWireTypes: the socket backend cannot ship a type without
// a codec, and must say which one at startup rather than hang mid-epoch.
func TestSockRejectsNonWireTypes(t *testing.T) {
	u := New(2, WithTransport(SockTransport(SockOptions{Network: "unix"})))
	Register(u, "bare", func(r *Rank, m int64) {})
	err := u.Run(func(r *Rank) {})
	if err == nil || !strings.Contains(err.Error(), `"bare"`) {
		t.Fatalf("Run error = %v, want wire-codec complaint naming the type", err)
	}
}

// TestSockOptionsDefaults pins the defaulting rules, including the sentinel
// values (negative budget = no reconnects, negative tick = per-poll).
func TestSockOptionsDefaults(t *testing.T) {
	o := SockOptions{}.withDefaults()
	if o.Network != "tcp" || o.Heartbeat != 50*time.Millisecond ||
		o.Liveness != 500*time.Millisecond || o.ReconnectBudget != 10 ||
		o.TickInterval != time.Millisecond {
		t.Fatalf("unexpected defaults: %+v", o)
	}
	if b := (SockOptions{ReconnectBudget: -1}.withDefaults()).ReconnectBudget; b != 0 {
		t.Fatalf("negative budget → %d, want 0", b)
	}
	if iv := (SockOptions{TickInterval: -1}.withDefaults()).TickInterval; iv != 0 {
		t.Fatalf("negative tick interval → %v, want 0", iv)
	}
}
