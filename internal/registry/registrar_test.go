package registry

import (
	"context"
	"net"
	"testing"
	"time"

	"qoschain/internal/media"
	"qoschain/internal/service"
)

func listenLocal(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	return ln
}

func TestMembershipRoundTrip(t *testing.T) {
	clock := NewFakeClock()
	reg := NewWithClock(clock)
	srv := Serve(reg, listenLocal(t))
	defer srv.Close()

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	lease := 5 * time.Second
	for _, m := range []Member{
		{ID: "n2", Addr: "127.0.0.1:8002", Host: "p2"},
		{ID: "n1", Addr: "127.0.0.1:8001", Host: "p1"},
		{ID: "n3", Addr: "127.0.0.1:8003", Host: "p3"},
	} {
		if err := c.JoinContext(ctx, m, lease); err != nil {
			t.Fatalf("join %s: %v", m.ID, err)
		}
	}
	ms, err := c.MembersContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 || ms[0].ID != "n1" || ms[2].ID != "n3" {
		t.Fatalf("members = %+v", ms)
	}
	if ms[1].Host != "p2" || ms[1].Addr != "127.0.0.1:8002" {
		t.Fatalf("member n2 = %+v", ms[1])
	}

	// Renew keeps a member alive across its original lease.
	clock.Advance(4 * time.Second)
	if err := c.RenewMemberContext(ctx, "n1", lease); err != nil {
		t.Fatalf("renew: %v", err)
	}
	clock.Advance(2 * time.Second) // n2/n3 leases now expired
	if n := reg.Sweep(); n != 2 {
		t.Fatalf("Sweep removed %d, want 2", n)
	}
	ms, err = c.MembersContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].ID != "n1" {
		t.Fatalf("post-expiry members = %+v", ms)
	}

	// An expired member cannot renew; it must rejoin.
	if err := c.RenewMemberContext(ctx, "n2", lease); err == nil {
		t.Fatal("renewing an expired member succeeded")
	}
	if err := c.JoinContext(ctx, Member{ID: "n2", Addr: "127.0.0.1:8002"}, lease); err != nil {
		t.Fatalf("rejoin: %v", err)
	}

	// Leave withdraws immediately.
	if err := c.Leave("n1"); err != nil {
		t.Fatal(err)
	}
	ms, _ = c.MembersContext(ctx)
	if len(ms) != 1 || ms[0].ID != "n2" {
		t.Fatalf("post-leave members = %+v", ms)
	}
}

// TestRegistrarSurvivesRegistryRestart is the regression test for the
// renewal dead-end: a registryd restart empties the lease table, so a
// client that only renews errors until its advertisement expires
// everywhere. The Registrar must instead re-register on the first
// heartbeat after the restart.
func TestRegistrarSurvivesRegistryRestart(t *testing.T) {
	ln := listenLocal(t)
	addr := ln.Addr().String()
	srv := Serve(New(), ln)

	svc := service.FormatConverter("conv-reg", media.VideoMPEG1, media.VideoH263)
	reg := NewRegistrar(RegistrarConfig{
		Addr:    addr,
		Lease:   time.Minute,
		Timeout: 2 * time.Second,
		Service: svc,
		Member:  &Member{ID: "n1", Addr: "127.0.0.1:9001", Host: "p1"},
	})
	defer reg.Close()

	ctx := context.Background()
	if err := reg.Heartbeat(ctx); err != nil {
		t.Fatalf("initial heartbeat: %v", err)
	}
	// Steady state: the same heartbeat is a pure renewal.
	if err := reg.Heartbeat(ctx); err != nil {
		t.Fatalf("renewal heartbeat: %v", err)
	}

	// Restart the registry on the same address with a fresh (empty)
	// state — the crash-and-restart a deployment actually sees.
	srv.Close()
	var ln2 net.Listener
	var err error
	for i := 0; i < 50; i++ {
		ln2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	fresh := New()
	srv2 := Serve(fresh, ln2)
	defer srv2.Close()

	// The next heartbeat hits a dead connection and an empty lease
	// table; it must heal both rather than error.
	if err := reg.Heartbeat(ctx); err != nil {
		t.Fatalf("heartbeat after restart: %v", err)
	}
	if _, ok := fresh.Lookup(svc.ID); !ok {
		t.Fatal("service not re-registered after registry restart")
	}
	ms := fresh.Members()
	if len(ms) != 1 || ms[0].ID != "n1" {
		t.Fatalf("member not rejoined after restart: %+v", ms)
	}

	// Subsequent heartbeats renew over the healed connection.
	if err := reg.Heartbeat(ctx); err != nil {
		t.Fatalf("heartbeat after heal: %v", err)
	}

	// Members polling heals the same way.
	if _, err := reg.Members(ctx); err != nil {
		t.Fatalf("Members after heal: %v", err)
	}
}

// TestRegistrarSurvivesLeaseExpiry covers the slow-heartbeat case: the
// registry stayed up but the lease lapsed, so Renew reports "no live
// registration". The heartbeat must fall back to re-registering over
// the same connection.
func TestRegistrarSurvivesLeaseExpiry(t *testing.T) {
	clock := NewFakeClock()
	r := NewWithClock(clock)
	srv := Serve(r, listenLocal(t))
	defer srv.Close()

	reg := NewRegistrar(RegistrarConfig{
		Addr:    srv.Addr(),
		Lease:   time.Second,
		Timeout: 2 * time.Second,
		Member:  &Member{ID: "n9", Addr: "127.0.0.1:9009"},
	})
	defer reg.Close()

	ctx := context.Background()
	if err := reg.Heartbeat(ctx); err != nil {
		t.Fatal(err)
	}
	clock.Advance(10 * time.Second)
	r.Sweep()
	if err := reg.Heartbeat(ctx); err != nil {
		t.Fatalf("heartbeat after lease expiry: %v", err)
	}
	if ms := r.Members(); len(ms) != 1 || ms[0].ID != "n9" {
		t.Fatalf("member not rejoined after expiry: %+v", ms)
	}
}
