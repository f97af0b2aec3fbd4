package registry

import (
	"context"
	"net"
	"testing"
	"time"
)

// silentListener accepts connections and reads requests but never
// answers — the hung-registry failure mode the client timeout guards
// against.
func silentListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				buf := make([]byte, 1024)
				for {
					if _, err := c.Read(buf); err != nil {
						c.Close()
						return
					}
				}
			}(conn)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln
}

func TestClientTimeoutFailsFastOnHungServer(t *testing.T) {
	ln := silentListener(t)
	c, err := DialTimeout(ln.Addr().String(), 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if _, err := c.All(); err == nil {
		t.Fatal("hung server must time out")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("timed out after %v, want ~100ms", elapsed)
	}
}

func TestClientContextCancellationUnblocks(t *testing.T) {
	ln := silentListener(t)
	c, err := Dial(ln.Addr().String()) // no timeout: only the ctx bounds it
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = c.MembersContext(ctx)
	if err == nil {
		t.Fatal("cancelled query must fail")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("unblocked after %v, want ~50ms", elapsed)
	}
	if ctx.Err() == nil {
		t.Error("context should be cancelled")
	}
}

func TestClientContextAlreadyCancelled(t *testing.T) {
	_, c := startServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.MembersContext(ctx); err == nil {
		t.Error("pre-cancelled context must fail immediately")
	}
}

func TestClientRecoversAfterTimeout(t *testing.T) {
	// After a context-bounded call, the connection deadline must be
	// reset so later calls work.
	_, c := startServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := c.MembersContext(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.All(); err != nil {
		t.Fatalf("plain call after bounded call: %v", err)
	}
}
