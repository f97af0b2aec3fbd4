package graph

import (
	"errors"
	"testing"
	"time"

	"qoschain/internal/media"
	"qoschain/internal/profile"
	"qoschain/internal/registry"
	"qoschain/internal/service"
)

// localDirectory answers Discover's queries from an in-memory registry,
// whose lookups cannot fail.
type localDirectory struct{ *registry.Registry }

func (d localDirectory) ByInput(f media.Format) ([]*service.Service, error) {
	return d.Registry.ByInput(f), nil
}

// failingDirectory answers its first ok queries from dir and fails every
// later one.
type failingDirectory struct {
	dir     Directory
	ok      int
	queries int
}

var errDirectoryDown = errors.New("directory down")

func (d *failingDirectory) ByInput(f media.Format) ([]*service.Service, error) {
	d.queries++
	if d.queries > d.ok {
		return nil, errDirectoryDown
	}
	return d.dir.ByInput(f)
}

func discoveryRegistry(t *testing.T) localDirectory {
	t.Helper()
	reg := registry.New()
	adds := []*service.Service{
		// Reachable in one hop from MPEG-1.
		service.FormatConverter("hop1", media.VideoMPEG1, media.VideoMJPEG),
		// Reachable in two hops.
		service.FormatConverter("hop2", media.VideoMJPEG, media.VideoH263),
		// Unreachable: nothing produces its input.
		service.FormatConverter("stray", media.AudioPCM, media.AudioMP3),
	}
	for _, s := range adds {
		s.Host = "p"
		if err := reg.Register(s, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	return localDirectory{reg}
}

func mpegContent() *profile.Content {
	return &profile.Content{ID: "c", Variants: []media.Descriptor{
		{Format: media.VideoMPEG1, Params: media.Params{media.ParamFrameRate: 30}},
	}}
}

func TestDiscoverBFS(t *testing.T) {
	reg := discoveryRegistry(t)
	found, err := Discover(reg, mpegContent(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 2 {
		t.Fatalf("Discover found %d services, want 2 (hop1, hop2)", len(found))
	}
	if found[0].ID != "hop1" || found[1].ID != "hop2" {
		t.Errorf("order = %v %v", found[0].ID, found[1].ID)
	}
}

func TestDiscoverDepthBound(t *testing.T) {
	reg := discoveryRegistry(t)
	found, err := Discover(reg, mpegContent(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 1 || found[0].ID != "hop1" {
		t.Fatalf("depth-1 discovery = %v", found)
	}
}

func TestDiscoverNilInputs(t *testing.T) {
	if got, err := Discover(nil, mpegContent(), 0); got != nil || err != nil {
		t.Error("nil directory should discover nothing")
	}
	if got, err := Discover(discoveryRegistry(t), nil, 0); got != nil || err != nil {
		t.Error("nil content should discover nothing")
	}
}

func TestDiscoverThenBuild(t *testing.T) {
	reg := discoveryRegistry(t)
	content := mpegContent()
	device := &profile.Device{ID: "d", Software: profile.Software{
		Decoders: []media.Format{media.VideoH263},
	}}
	services, err := Discover(reg, content, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(Input{Content: content, Device: device, Services: services})
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasPath() {
		t.Errorf("discovered services must connect sender to receiver:\n%s", g)
	}
	if _, ok := g.Node("stray"); ok {
		t.Error("unreachable service must not be discovered")
	}
}

// TestDiscoverFailedQueryIsAnError has the directory answer the first
// query (MPEG-1 → hop1) and fail the second (MJPEG): Discover must
// report the failure, not return the shorter list hop1 alone.
func TestDiscoverFailedQueryIsAnError(t *testing.T) {
	dir := &failingDirectory{dir: discoveryRegistry(t), ok: 1}
	found, err := Discover(dir, mpegContent(), 0)
	if !errors.Is(err, errDirectoryDown) {
		t.Fatalf("Discover = %v, %v; want an error wrapping %v", found, err, errDirectoryDown)
	}
	if found != nil {
		t.Errorf("a failed discovery returned services %v", found)
	}
	if dir.queries != 2 {
		t.Errorf("directory saw %d queries, want 2 (the second failed)", dir.queries)
	}
}
