// Package e2e holds end-to-end integration tests exercising the whole
// deployment story: intermediaries advertise services to a TCP registry,
// the composer discovers them, builds the graph over a live overlay,
// selects a chain, streams frames through it, and adapts when the
// network fluctuates — with the HTTP API layered on top.
package e2e

import (
	"bytes"
	"encoding/json"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"qoschain/internal/core"
	"qoschain/internal/graph"
	"qoschain/internal/httpapi"
	"qoschain/internal/media"
	"qoschain/internal/overlay"
	"qoschain/internal/pipeline"
	"qoschain/internal/profile"
	"qoschain/internal/registry"
	"qoschain/internal/satisfaction"
	"qoschain/internal/service"
	"qoschain/internal/session"
)

// deployment assembles the shared scenario: an MPEG-1 source, a phone
// that decodes H.263, two proxies advertising converters to a live TCP
// registry, and an overlay connecting everything.
type deployment struct {
	registry *registry.Server
	client   *registry.Client
	net      *overlay.Network
	content  *profile.Content
	device   *profile.Device
}

func deploy(t *testing.T) *deployment {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := registry.Serve(registry.New(), ln)
	t.Cleanup(func() { srv.Close() })

	client, err := registry.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })

	// Two intermediaries advertise over the wire, as real proxies would.
	direct := service.FormatConverter("direct", media.VideoMPEG1, media.VideoH263)
	direct.Host = "proxy-fast"
	stage1 := service.FormatConverter("stage1", media.VideoMPEG1, media.VideoMJPEG)
	stage1.Host = "proxy-slow"
	stage2 := service.FormatConverter("stage2", media.VideoMJPEG, media.VideoH263)
	stage2.Host = "proxy-slow"
	for _, svc := range []*service.Service{direct, stage1, stage2} {
		if err := client.Register(svc, time.Hour); err != nil {
			t.Fatal(err)
		}
	}

	ov := overlay.New()
	ov.AddLink("sender", "proxy-fast", 2600, 10, 0)
	ov.AddLink("proxy-fast", "phone", 2400, 15, 0)
	ov.AddLink("sender", "proxy-slow", 1500, 20, 0)
	ov.AddLink("proxy-slow", "phone", 1400, 25, 0)

	return &deployment{
		registry: srv,
		client:   client,
		net:      ov,
		content: &profile.Content{ID: "clip", Variants: []media.Descriptor{
			{Format: media.VideoMPEG1, Params: media.Params{media.ParamFrameRate: 30}},
		}},
		device: &profile.Device{ID: "phone", Software: profile.Software{
			Decoders: []media.Format{media.VideoH263},
		}},
	}
}

// discover finds the deployment's services through the wire-protocol
// registry. A failed query fails the test, and so does any answer other
// than the three advertised services: a session composed from a partial
// discovery would fail later for a reason the test could not name.
func discover(t *testing.T, d *deployment) []*service.Service {
	t.Helper()
	services, err := graph.Discover(d.client, d.content, 0)
	if err != nil {
		t.Fatalf("discovery failed: %v", err)
	}
	if len(services) != 3 {
		t.Fatalf("discovered %d services %v, want 3 (direct, stage1, stage2)", len(services), services)
	}
	return services
}

// table1StyleConfig is the linear frame-rate objective shared by the
// end-to-end tests.
func table1StyleConfig() core.Config {
	return core.Config{Profile: satisfaction.NewProfile(map[media.Param]satisfaction.Function{
		media.ParamFrameRate: satisfaction.Linear{M: 0, I: 30},
	})}
}

func TestEndToEndDiscoverComposeStream(t *testing.T) {
	d := deploy(t)

	// 1. Discover services through the wire-protocol registry.
	services := discover(t, d)

	// 2. Build the adaptation graph over the live overlay and select.
	g, err := graph.Build(graph.Input{
		Content: d.content, Device: d.device,
		Services: services, Net: d.net,
		SenderHost: "sender", ReceiverHost: "phone",
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := table1StyleConfig()
	res, err := core.Select(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if core.PathString(res.Path) != "sender,direct,receiver" {
		t.Fatalf("selected path = %s, want the fast proxy", core.PathString(res.Path))
	}
	// Bottleneck 2400 kbps → 24 fps → 0.8.
	if math.Abs(res.Satisfaction-0.8) > 1e-6 {
		t.Fatalf("satisfaction = %v, want 0.8", res.Satisfaction)
	}

	// 3. Stream 10 seconds through the chain.
	p, err := pipeline.FromResult(g, res, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stats := p.Run(300)
	if math.Abs(stats.DeliveredFPS-24) > 1.5 {
		t.Errorf("delivered fps = %v, want ~24", stats.DeliveredFPS)
	}
	if stats.ChainDelayMs != 25 { // 10 + 15 ms
		t.Errorf("chain delay = %v, want 25", stats.ChainDelayMs)
	}
}

func TestEndToEndSessionAdapts(t *testing.T) {
	d := deploy(t)
	services := discover(t, d)

	sess, err := session.New(session.Config{
		Content: d.content, Device: d.device,
		Services: services, Net: d.net,
		SenderHost: "sender", ReceiverHost: "phone",
		Select: table1StyleConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if core.PathString(sess.Result().Path) != "sender,direct,receiver" {
		t.Fatalf("initial path = %s", core.PathString(sess.Result().Path))
	}
	// The fast proxy's access link collapses; the session must fall
	// back to the two-stage chain through the slow proxy.
	if err := d.net.SetBandwidth("sender", "proxy-fast", 200); err != nil {
		t.Fatal(err)
	}
	changed, err := sess.Reevaluate()
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("session should re-compose after the collapse")
	}
	if core.PathString(sess.Result().Path) != "sender,stage1,stage2,receiver" {
		t.Errorf("fallback path = %s", core.PathString(sess.Result().Path))
	}
}

func TestEndToEndOverHTTP(t *testing.T) {
	d := deploy(t)
	// The HTTP API takes a full profile set; assemble one matching the
	// deployment (the intermediary list mirrors what the registry holds).
	services := discover(t, d)
	byHost := map[string][]*service.Service{}
	for _, svc := range services {
		byHost[svc.Host] = append(byHost[svc.Host], svc)
	}
	set := &profile.Set{
		User: profile.User{Name: "u", Preferences: map[media.Param]profile.FuncSpec{
			media.ParamFrameRate: profile.LinearSpec(0, 30),
		}},
		Content: *d.content,
		Device:  *d.device,
		Network: d.net.Snapshot(),
	}
	for host, svcs := range byHost {
		set.Intermediaries = append(set.Intermediaries, profile.Intermediary{
			Host: host, CPUMips: 10000, MemoryMB: 1024, Services: svcs,
		})
	}

	api := httptest.NewServer(httpapi.Handler())
	defer api.Close()
	var buf bytes.Buffer
	if err := set.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(api.URL+"/v1/compose", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var body struct {
		Path         []string `json:"path"`
		Satisfaction float64  `json:"satisfaction"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Path) != 3 || body.Path[1] != "direct" {
		t.Errorf("HTTP path = %v", body.Path)
	}
	if math.Abs(body.Satisfaction-0.8) > 1e-6 {
		t.Errorf("HTTP satisfaction = %v", body.Satisfaction)
	}
}

// TestEndToEndDiscoverFailsWhenRegistryDown closes the registry before
// discovery: the lookup must fail loudly rather than hand the composer
// an empty service list.
func TestEndToEndDiscoverFailsWhenRegistryDown(t *testing.T) {
	d := deploy(t)
	d.registry.Close()
	services, err := graph.Discover(d.client, d.content, 0)
	if err == nil {
		t.Fatalf("discovery against a closed registry returned %d services and no error", len(services))
	}
}
