package registry

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"qoschain/internal/media"
	"qoschain/internal/service"
)

func startServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(New(), ln)
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, c
}

// lookup sends the wire protocol's lookup op, which no Client method
// wraps.
func lookup(c *Client, id service.ID) (*service.Service, error) {
	resp, err := c.roundTrip(context.Background(), request{Op: "lookup", ID: id})
	if err != nil {
		return nil, err
	}
	if len(resp.Services) == 0 {
		return nil, fmt.Errorf("empty lookup response for %s", id)
	}
	return resp.Services[0], nil
}

func TestWireRegisterLookup(t *testing.T) {
	_, c := startServer(t)
	s := service.FormatConverter("c1", media.ImageJPEG, media.ImageGIF)
	if err := c.Register(s, time.Minute); err != nil {
		t.Fatal(err)
	}
	got, err := lookup(c, "c1")
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != "c1" || !got.Accepts(media.ImageJPEG) || !got.Produces(media.ImageGIF) {
		t.Errorf("lookup = %v", got)
	}
}

func TestWireLookupUnknown(t *testing.T) {
	_, c := startServer(t)
	if _, err := lookup(c, "ghost"); err == nil {
		t.Error("lookup of unknown service should fail")
	}
}

func TestWireQueries(t *testing.T) {
	_, c := startServer(t)
	_ = c.Register(service.FormatConverter("c1", media.ImageJPEG, media.ImageGIF), 0)
	_ = c.Register(service.FormatConverter("c2", media.ImageJPEG, media.ImagePNG), 0)
	_ = c.Register(service.HTMLToWML("h1"), 0)

	in, err := c.ByInput(media.ImageJPEG)
	if err != nil {
		t.Fatal(err)
	}
	if len(in) != 2 {
		t.Errorf("ByInput = %d services, want 2", len(in))
	}
	out, err := c.ByOutput(media.TextWML)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].ID != "h1" {
		t.Errorf("ByOutput = %v", out)
	}
	all, err := c.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Errorf("All = %d, want 3", len(all))
	}
	resp, err := c.roundTrip(context.Background(), request{Op: "len"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Count != 3 {
		t.Errorf("len op = %d, want 3", resp.Count)
	}
}

func TestWireDeregisterRenew(t *testing.T) {
	_, c := startServer(t)
	_ = c.Register(service.FormatConverter("c1", media.ImageJPEG, media.ImageGIF), time.Minute)
	if err := c.RenewContext(context.Background(), "c1", time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := c.Deregister("c1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Deregister("c1"); err == nil {
		t.Error("double deregister over the wire should fail")
	}
}

func TestWireRegisterInvalid(t *testing.T) {
	_, c := startServer(t)
	if err := c.Register(&service.Service{ID: "bad"}, 0); err == nil {
		t.Error("invalid service should be rejected over the wire")
	}
}

func TestWireMultipleClients(t *testing.T) {
	srv, c1 := startServer(t)
	c2, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c1.Register(service.HTMLToWML("h1"), 0); err != nil {
		t.Fatal(err)
	}
	got, err := lookup(c2, "h1")
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != "h1" {
		t.Error("second client should see first client's registration")
	}
}

func TestWireServerClose(t *testing.T) {
	srv, c := startServer(t)
	if err := srv.Close(); err != nil {
		t.Logf("close: %v", err)
	}
	if err := c.Register(service.HTMLToWML("h1"), 0); err == nil {
		// The first write may still land in the OS buffer; a
		// round-trip must eventually fail.
		if _, err := c.All(); err == nil {
			t.Error("requests after server close should fail")
		}
	}
}

func TestWireBadRequestLine(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(New(), ln)
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("server should answer bad requests with an error response")
	}
}

func TestWireUnknownOp(t *testing.T) {
	_, c := startServer(t)
	if _, err := c.roundTrip(context.Background(), request{Op: "explode"}); err == nil {
		t.Error("unknown op should fail")
	}
}
