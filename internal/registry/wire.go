package registry

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"qoschain/internal/media"
	"qoschain/internal/metrics"
	"qoschain/internal/service"
	"qoschain/internal/trace"
)

// This file implements a small newline-delimited-JSON wire protocol so a
// registry can be served over TCP — the stand-in for the SLP daemon a
// real deployment would run. One request per line, one response per line.

// request is the wire form of a registry operation.
type request struct {
	// Op is one of "register", "deregister", "renew", "lookup",
	// "byinput", "byoutput", "all", "len" — or, for cluster membership,
	// "join", "mrenew", "leave", "members".
	Op string `json:"op"`
	// Service carries the advertisement for register.
	Service *service.Service `json:"service,omitempty"`
	// ID names the target for deregister/renew/lookup.
	ID service.ID `json:"id,omitempty"`
	// LeaseMs is the lease duration for register/renew/join/mrenew.
	LeaseMs int64 `json:"leaseMs,omitempty"`
	// Format is the query format for byinput/byoutput.
	Format string `json:"format,omitempty"`
	// Member carries the replica advertisement for join.
	Member *Member `json:"member,omitempty"`
	// MemberID names the target for mrenew/leave.
	MemberID string `json:"memberId,omitempty"`
}

// response is the wire form of a registry reply.
type response struct {
	OK       bool               `json:"ok"`
	Error    string             `json:"error,omitempty"`
	Services []*service.Service `json:"services,omitempty"`
	Count    int                `json:"count,omitempty"`
	Members  []Member           `json:"members,omitempty"`
}

// Server exposes a Registry over TCP.
type Server struct {
	reg  *Registry
	ln   net.Listener
	opts ServeOptions

	mu     sync.Mutex
	conns  map[net.Conn]bool
	closed bool
	wg     sync.WaitGroup

	// logMu serializes access-log lines across connection goroutines.
	logMu sync.Mutex
}

// ServeOptions bounds a Server's per-connection I/O — the TCP analogue
// of http.Server's Read/WriteTimeout — and wires its observability.
// The zero value disables everything, preserving the historical
// behavior.
type ServeOptions struct {
	// IdleTimeout closes a connection that sends no request for this
	// long. 0 disables the bound.
	IdleTimeout time.Duration
	// WriteTimeout bounds writing one response. 0 disables the bound.
	WriteTimeout time.Duration
	// Metrics, when set, receives per-op request counters and latency
	// samples: registry.requests{op=,outcome=} and
	// registry.latency_ms{op=}. Lease traffic (register/renew/join/
	// mrenew/leave) is the interesting load — it shows up per-op.
	Metrics *metrics.Registry
	// Tracer, when set, retains one trace per wire request, named
	// "registry.<op>", so lease churn is inspectable on the daemon's
	// /debug/traces listener.
	Tracer *trace.Tracer
	// AccessLog, when set, receives one line per request: remote
	// address, op, outcome, latency, and trace ID.
	AccessLog io.Writer
}

// Serve starts serving the registry on the given listener with no I/O
// bounds; it returns immediately and handles connections until Close.
func Serve(reg *Registry, ln net.Listener) *Server {
	return ServeOpts(reg, ln, ServeOptions{})
}

// ServeOpts is Serve with per-connection I/O bounds.
func ServeOpts(reg *Registry, ln net.Listener, opts ServeOptions) *Server {
	s := &Server{reg: reg, ln: ln, opts: opts, conns: make(map[net.Conn]bool)}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and closes every live connection.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

// Shutdown stops accepting new connections and waits for in-flight
// connections to drain. When the context expires first, the remaining
// connections are force-closed (mirroring http.Server.Shutdown).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	err := s.ln.Close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return err
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		if err == nil {
			err = ctx.Err()
		}
		return err
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	scanner := bufio.NewScanner(conn)
	scanner.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	enc := json.NewEncoder(conn)
	for {
		if s.opts.IdleTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout))
		}
		if !scanner.Scan() {
			return
		}
		var req request
		var resp response
		if err := json.Unmarshal(scanner.Bytes(), &req); err != nil {
			resp = response{Error: fmt.Sprintf("bad request: %v", err)}
		} else {
			resp = s.observe(conn.RemoteAddr().String(), req)
		}
		if s.opts.WriteTimeout > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
		}
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
}

func (s *Server) dispatch(req request) response {
	switch req.Op {
	case "register":
		if req.Service == nil {
			return response{Error: "register without service"}
		}
		if err := s.reg.Register(req.Service, time.Duration(req.LeaseMs)*time.Millisecond); err != nil {
			return response{Error: err.Error()}
		}
		return response{OK: true}
	case "deregister":
		if err := s.reg.Deregister(req.ID); err != nil {
			return response{Error: err.Error()}
		}
		return response{OK: true}
	case "renew":
		if err := s.reg.Renew(req.ID, time.Duration(req.LeaseMs)*time.Millisecond); err != nil {
			return response{Error: err.Error()}
		}
		return response{OK: true}
	case "lookup":
		svc, ok := s.reg.Lookup(req.ID)
		if !ok {
			return response{Error: fmt.Sprintf("unknown service %s", req.ID)}
		}
		return response{OK: true, Services: []*service.Service{svc}}
	case "byinput", "byoutput":
		f, err := media.ParseFormat(req.Format)
		if err != nil {
			return response{Error: err.Error()}
		}
		var svcs []*service.Service
		if req.Op == "byinput" {
			svcs = s.reg.ByInput(f)
		} else {
			svcs = s.reg.ByOutput(f)
		}
		return response{OK: true, Services: svcs, Count: len(svcs)}
	case "all":
		svcs := s.reg.All()
		return response{OK: true, Services: svcs, Count: len(svcs)}
	case "len":
		return response{OK: true, Count: s.reg.Len()}
	case "join":
		if req.Member == nil {
			return response{Error: "join without member"}
		}
		if err := s.reg.Join(*req.Member, time.Duration(req.LeaseMs)*time.Millisecond); err != nil {
			return response{Error: err.Error()}
		}
		return response{OK: true}
	case "mrenew":
		if err := s.reg.RenewMember(req.MemberID, time.Duration(req.LeaseMs)*time.Millisecond); err != nil {
			return response{Error: err.Error()}
		}
		return response{OK: true}
	case "leave":
		if err := s.reg.Leave(req.MemberID); err != nil {
			return response{Error: err.Error()}
		}
		return response{OK: true}
	case "members":
		ms := s.reg.Members()
		return response{OK: true, Members: ms, Count: len(ms)}
	default:
		return response{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

// Client talks to a registry Server over TCP. It is safe for sequential
// use; guard with a mutex for concurrent callers.
type Client struct {
	conn    net.Conn
	enc     *json.Encoder
	sc      *bufio.Scanner
	timeout time.Duration
}

// Dial connects to a registry server with no I/O timeout.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, 0)
}

// DialTimeout connects with a bound on both the connection attempt and
// every subsequent request/response round trip. A slow or hung registry
// then fails fast instead of stalling its caller. timeout 0 disables
// the bound.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("registry: dialing %s: %w", addr, err)
	}
	return newClient(conn, timeout), nil
}

func newClient(conn net.Conn, timeout time.Duration) *Client {
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	return &Client{conn: conn, enc: json.NewEncoder(conn), sc: sc, timeout: timeout}
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// roundTrip performs one request/response exchange under the client's
// timeout and the context's deadline/cancellation, whichever is sooner.
func (c *Client) roundTrip(ctx context.Context, req request) (response, error) {
	if err := ctx.Err(); err != nil {
		return response{}, fmt.Errorf("registry: %w", err)
	}
	deadline, bounded := ctx.Deadline()
	if c.timeout > 0 {
		if t := time.Now().Add(c.timeout); !bounded || t.Before(deadline) {
			deadline, bounded = t, true
		}
	}
	if bounded {
		_ = c.conn.SetDeadline(deadline)
		defer c.conn.SetDeadline(time.Time{}) //nolint:errcheck // best-effort reset
	}
	if done := ctx.Done(); done != nil {
		// Interrupt in-flight I/O on cancellation by expiring the
		// connection deadline immediately.
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-done:
				_ = c.conn.SetDeadline(time.Unix(1, 0))
			case <-stop:
			}
		}()
	}

	resp, err := c.exchange(req)
	if err != nil && ctx.Err() != nil {
		return resp, fmt.Errorf("registry: %w", ctx.Err())
	}
	return resp, err
}

func (c *Client) exchange(req request) (response, error) {
	if err := c.enc.Encode(req); err != nil {
		return response{}, fmt.Errorf("registry: sending request: %w", err)
	}
	if !c.sc.Scan() {
		if err := c.sc.Err(); err != nil {
			return response{}, fmt.Errorf("registry: reading response: %w", err)
		}
		return response{}, fmt.Errorf("registry: connection closed: %w", io.EOF)
	}
	var resp response
	if err := json.Unmarshal(c.sc.Bytes(), &resp); err != nil {
		return response{}, fmt.Errorf("registry: decoding response: %w", err)
	}
	if !resp.OK {
		return resp, errors.New("registry: " + resp.Error)
	}
	return resp, nil
}

// Register advertises a service with a lease.
func (c *Client) Register(s *service.Service, lease time.Duration) error {
	return c.RegisterContext(context.Background(), s, lease)
}

// RegisterContext is Register under a context.
func (c *Client) RegisterContext(ctx context.Context, s *service.Service, lease time.Duration) error {
	_, err := c.roundTrip(ctx, request{Op: "register", Service: s, LeaseMs: lease.Milliseconds()})
	return err
}

// Deregister withdraws a service.
func (c *Client) Deregister(id service.ID) error {
	_, err := c.roundTrip(context.Background(), request{Op: "deregister", ID: id})
	return err
}

// RenewContext extends a lease.
func (c *Client) RenewContext(ctx context.Context, id service.ID, lease time.Duration) error {
	_, err := c.roundTrip(ctx, request{Op: "renew", ID: id, LeaseMs: lease.Milliseconds()})
	return err
}

// ByInput queries services accepting a format. It satisfies
// graph.Directory.
func (c *Client) ByInput(f media.Format) ([]*service.Service, error) {
	resp, err := c.roundTrip(context.Background(), request{Op: "byinput", Format: f.String()})
	if err != nil {
		return nil, err
	}
	return resp.Services, nil
}

// ByOutput queries services producing a format.
func (c *Client) ByOutput(f media.Format) ([]*service.Service, error) {
	resp, err := c.roundTrip(context.Background(), request{Op: "byoutput", Format: f.String()})
	if err != nil {
		return nil, err
	}
	return resp.Services, nil
}

// All lists every live advertisement.
func (c *Client) All() ([]*service.Service, error) {
	resp, err := c.roundTrip(context.Background(), request{Op: "all"})
	if err != nil {
		return nil, err
	}
	return resp.Services, nil
}

// JoinContext advertises a cluster member under a lease.
func (c *Client) JoinContext(ctx context.Context, m Member, lease time.Duration) error {
	_, err := c.roundTrip(ctx, request{Op: "join", Member: &m, LeaseMs: lease.Milliseconds()})
	return err
}

// RenewMemberContext extends a member's lease.
func (c *Client) RenewMemberContext(ctx context.Context, id string, lease time.Duration) error {
	_, err := c.roundTrip(ctx, request{Op: "mrenew", MemberID: id, LeaseMs: lease.Milliseconds()})
	return err
}

// Leave withdraws a member.
func (c *Client) Leave(id string) error {
	_, err := c.roundTrip(context.Background(), request{Op: "leave", MemberID: id})
	return err
}

// MembersContext lists the live cluster membership.
func (c *Client) MembersContext(ctx context.Context) ([]Member, error) {
	resp, err := c.roundTrip(ctx, request{Op: "members"})
	if err != nil {
		return nil, err
	}
	return resp.Members, nil
}
