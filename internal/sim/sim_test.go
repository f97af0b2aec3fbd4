package sim

import (
	"strings"
	"testing"

	"qoschain/internal/media"
	"qoschain/internal/profile"
	"qoschain/internal/service"
)

// scenario builds a two-proxy deployment with two possible viewers.
func scenario() *Scenario {
	fast := service.FormatConverter("fast", media.VideoMPEG1, media.VideoH263)
	fast.Host = "proxy-fast"
	slow := service.FormatConverter("slow", media.VideoMPEG1, media.VideoH263)
	slow.Host = "proxy-slow"
	return &Scenario{
		Name: "test",
		Content: profile.Content{ID: "clip", Variants: []media.Descriptor{
			{Format: media.VideoMPEG1, Params: media.Params{media.ParamFrameRate: 30}},
		}},
		Network: profile.Network{Links: []profile.Link{
			{From: "sender", To: "proxy-fast", BandwidthKbps: 3000},
			{From: "proxy-fast", To: "dev-1", BandwidthKbps: 3000},
			{From: "proxy-fast", To: "dev-2", BandwidthKbps: 3000},
			{From: "sender", To: "proxy-slow", BandwidthKbps: 1500},
			{From: "proxy-slow", To: "dev-1", BandwidthKbps: 1500},
			{From: "proxy-slow", To: "dev-2", BandwidthKbps: 1500},
		}},
		Intermediaries: []profile.Intermediary{
			{Host: "proxy-fast", CPUMips: 10000, MemoryMB: 1024, Services: []*service.Service{fast}},
			{Host: "proxy-slow", CPUMips: 10000, MemoryMB: 1024, Services: []*service.Service{slow}},
		},
		Users: []profile.User{{
			Name: "alice",
			Preferences: map[media.Param]profile.FuncSpec{
				media.ParamFrameRate: profile.LinearSpec(0, 30),
			},
		}},
		Devices: []profile.Device{
			{ID: "dev-1", Software: profile.Software{Decoders: []media.Format{media.VideoH263}}},
			{ID: "dev-2", Software: profile.Software{Decoders: []media.Format{media.VideoH263}}},
		},
	}
}

func TestRunBasicLifecycle(t *testing.T) {
	sc := scenario()
	sc.Events = []Event{
		{AtStep: 1, Kind: "arrive", SessionID: "s1", User: "alice", Device: "dev-1"},
		{AtStep: 2, Kind: "arrive", SessionID: "s2", User: "alice", Device: "dev-2"},
		{AtStep: 4, Kind: "depart", SessionID: "s1"},
	}
	sc.Steps = 5
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Steps) != 5 {
		t.Fatalf("steps = %d", len(rep.Steps))
	}
	if rep.Steps[0].Active != 1 || rep.Steps[1].Active != 2 {
		t.Errorf("active counts = %d, %d", rep.Steps[0].Active, rep.Steps[1].Active)
	}
	if rep.Steps[3].Active != 1 || rep.Steps[3].Departures != 1 {
		t.Errorf("step 4 = %+v", rep.Steps[3])
	}
	if len(rep.Sessions) != 2 {
		t.Fatalf("sessions = %d", len(rep.Sessions))
	}
	if rep.Sessions[0].DepartStep != 4 {
		t.Errorf("s1 depart step = %d", rep.Sessions[0].DepartStep)
	}
	if rep.Sessions[1].DepartStep != 0 {
		t.Errorf("s2 should still be active, depart = %d", rep.Sessions[1].DepartStep)
	}
	if rep.MeanSatisfaction() != 1 {
		t.Errorf("mean satisfaction = %v (fast path fits everyone without reservation)", rep.MeanSatisfaction())
	}
}

func TestRunReservationContention(t *testing.T) {
	sc := scenario()
	sc.Reserve = true
	sc.Events = []Event{
		{AtStep: 1, Kind: "arrive", SessionID: "s1", User: "alice", Device: "dev-1"},
		{AtStep: 2, Kind: "arrive", SessionID: "s2", User: "alice", Device: "dev-2"},
		{AtStep: 4, Kind: "depart", SessionID: "s1"},
	}
	sc.Steps = 5
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	// s1 reserves the fast path fully; s2 must use the slow proxy.
	if rep.Sessions[1].Samples[0].Path != "sender,slow,receiver" {
		t.Errorf("s2 first path = %s", rep.Sessions[1].Samples[0].Path)
	}
	if rep.Sessions[1].Samples[0].Satisfaction >= 1 {
		t.Error("contended s2 should be degraded")
	}
	// After s1 departs at step 4, s2 upgrades.
	last := rep.Sessions[1].Samples[len(rep.Sessions[1].Samples)-1]
	if last.Satisfaction != 1 || last.Path != "sender,fast,receiver" {
		t.Errorf("s2 should upgrade after departure: %+v", last)
	}
	upgraded := false
	for _, s := range rep.Steps {
		if s.Recompositions > 0 {
			upgraded = true
		}
	}
	if !upgraded {
		t.Error("the departure should trigger a recomposition")
	}
}

func TestRunBandwidthEventForcesSwitch(t *testing.T) {
	sc := scenario()
	sc.Events = []Event{
		{AtStep: 1, Kind: "arrive", SessionID: "s1", User: "alice", Device: "dev-1"},
		{AtStep: 2, Kind: "bandwidth", From: "sender", To: "proxy-fast", Kbps: 300},
	}
	sc.Steps = 3
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sessions[0].Samples[0].Path != "sender,fast,receiver" {
		t.Fatalf("initial path = %s", rep.Sessions[0].Samples[0].Path)
	}
	after := rep.Sessions[0].Samples[1]
	if after.Path != "sender,slow,receiver" || !after.Recomposed {
		t.Errorf("after collapse: %+v", after)
	}
}

func TestRunRemoveLinkRejectsNewcomer(t *testing.T) {
	sc := scenario()
	sc.Events = []Event{
		{AtStep: 1, Kind: "removelink", From: "sender", To: "proxy-fast"},
		{AtStep: 1, Kind: "removelink", From: "sender", To: "proxy-slow"},
		{AtStep: 2, Kind: "arrive", SessionID: "s1", User: "alice", Device: "dev-1"},
	}
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalRejections() != 1 {
		t.Errorf("rejections = %d, want 1", rep.TotalRejections())
	}
	if !rep.Sessions[0].Rejected {
		t.Error("session trace should be marked rejected")
	}
}

func TestScenarioValidation(t *testing.T) {
	base := scenario()
	cases := []func(*Scenario){
		func(s *Scenario) {
			s.Events = []Event{{AtStep: 0, Kind: "arrive", SessionID: "x", User: "alice", Device: "dev-1"}}
		},
		func(s *Scenario) { s.Events = []Event{{AtStep: 1, Kind: "arrive", User: "alice", Device: "dev-1"}} },
		func(s *Scenario) {
			s.Events = []Event{{AtStep: 1, Kind: "arrive", SessionID: "x", User: "ghost", Device: "dev-1"}}
		},
		func(s *Scenario) {
			s.Events = []Event{{AtStep: 1, Kind: "arrive", SessionID: "x", User: "alice", Device: "ghost"}}
		},
		func(s *Scenario) { s.Events = []Event{{AtStep: 1, Kind: "explode"}} },
		func(s *Scenario) { s.Events = []Event{{AtStep: 1, Kind: "bandwidth", From: "a"}} },
		func(s *Scenario) { s.Events = []Event{{AtStep: 1, Kind: "depart"}} },
		func(s *Scenario) {
			s.Events = []Event{
				{AtStep: 1, Kind: "arrive", SessionID: "dup", User: "alice", Device: "dev-1"},
				{AtStep: 2, Kind: "arrive", SessionID: "dup", User: "alice", Device: "dev-2"},
			}
		},
	}
	for i, mutate := range cases {
		sc := scenario()
		mutate(sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
	if err := base.Validate(); err != nil {
		t.Errorf("base scenario invalid: %v", err)
	}
}

func TestLoadScenarioJSON(t *testing.T) {
	jsonDoc := `{
	  "name": "mini",
	  "content": {"id": "c", "variants": [{"Format":{"Kind":1,"Encoding":"mpeg1"},"Params":{"framerate":30}}]},
	  "network": {"links": [{"from":"sender","to":"dev-1","bandwidthKbps":2000}]},
	  "users": [{"name":"u","preferences":{"framerate":{"shape":"linear","ideal":30}}}],
	  "devices": [{"id":"dev-1","hardware":{"cpuMips":100,"memoryMB":16},
	               "software":{"decoders":[{"Kind":1,"Encoding":"mpeg1"}]}}],
	  "events": [{"atStep":1,"kind":"arrive","sessionId":"s1","user":"u","device":"dev-1"}]
	}`
	sc, err := LoadScenario(strings.NewReader(jsonDoc))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Sessions) != 1 || rep.Sessions[0].Rejected {
		t.Errorf("sessions = %+v", rep.Sessions)
	}
	// 2000 kbps direct link → 20 fps → 2/3.
	if s := rep.Sessions[0].FinalSat; s < 0.66 || s > 0.67 {
		t.Errorf("final sat = %v", s)
	}
}

func TestLoadScenarioRejectsGarbage(t *testing.T) {
	if _, err := LoadScenario(strings.NewReader("not json")); err == nil {
		t.Error("garbage should fail")
	}
	if _, err := LoadScenario(strings.NewReader(`{"bogusField": 1}`)); err == nil {
		t.Error("unknown fields should fail")
	}
}

func TestRenderMarkdown(t *testing.T) {
	sc := scenario()
	sc.Reserve = true
	sc.Events = []Event{
		{AtStep: 1, Kind: "arrive", SessionID: "s1", User: "alice", Device: "dev-1"},
		{AtStep: 2, Kind: "arrive", SessionID: "s2", User: "alice", Device: "dev-2"},
		{AtStep: 3, Kind: "depart", SessionID: "s1"},
	}
	sc.Steps = 4
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := rep.RenderMarkdown(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# Simulation report: test",
		"## Per-step",
		"## Per-session",
		"## Timelines",
		"| s1 |", "| s2 |",
		"sender,fast,receiver",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
	// Rejected sessions render distinctly.
	sc2 := scenario()
	sc2.Events = []Event{
		{AtStep: 1, Kind: "removelink", From: "sender", To: "proxy-fast"},
		{AtStep: 1, Kind: "removelink", From: "sender", To: "proxy-slow"},
		{AtStep: 2, Kind: "arrive", SessionID: "sx", User: "alice", Device: "dev-1"},
	}
	rep2, err := Run(sc2)
	if err != nil {
		t.Fatal(err)
	}
	var b2 strings.Builder
	if err := rep2.RenderMarkdown(&b2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b2.String(), "*(rejected)*") {
		t.Error("rejected session should be marked in the report")
	}
}

func TestRunHostCrashFailsOverAndRecovers(t *testing.T) {
	sc := scenario()
	sc.Events = []Event{
		{AtStep: 1, Kind: "arrive", SessionID: "s1", User: "alice", Device: "dev-1"},
		{AtStep: 3, Kind: "hostdown", Host: "proxy-fast"},
		{AtStep: 6, Kind: "hostup", Host: "proxy-fast"},
	}
	sc.Steps = 8
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	samples := rep.Sessions[0].Samples
	if samples[1].Path != "sender,fast,receiver" {
		t.Errorf("pre-crash path = %s", samples[1].Path)
	}
	// Steps 3-5: proxy-fast is down, the session must survive on slow.
	if samples[3].Path != "sender,slow,receiver" {
		t.Errorf("mid-outage path = %s", samples[3].Path)
	}
	// After recovery the session returns to the fast chain.
	if samples[7].Path != "sender,fast,receiver" || samples[7].Satisfaction != 1 {
		t.Errorf("post-recovery sample = %+v", samples[7])
	}
	if rep.DegradedSteps() != 0 {
		t.Errorf("a live alternative existed throughout: %d degraded steps", rep.DegradedSteps())
	}
}

// TestRunServiceChurnEvents checks that deregistered services leave
// every chain: sessions compose against the live service set.
func TestRunServiceChurnEvents(t *testing.T) {
	sc := scenario()
	sc.Events = []Event{
		{AtStep: 1, Kind: "arrive", SessionID: "s1", User: "alice", Device: "dev-1"},
		{AtStep: 2, Kind: "servicedown", Service: "fast"},
		{AtStep: 5, Kind: "serviceup", Service: "fast"},
	}
	sc.Steps = 7
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	samples := rep.Sessions[0].Samples
	if samples[2].Path != "sender,slow,receiver" {
		t.Errorf("path with fast deregistered = %s", samples[2].Path)
	}
	if samples[6].Path != "sender,fast,receiver" {
		t.Errorf("path after re-registration = %s", samples[6].Path)
	}
}

func TestRunUnrecoverableOutageDegradesNotAborts(t *testing.T) {
	sc := scenario()
	sc.Events = []Event{
		{AtStep: 1, Kind: "arrive", SessionID: "s1", User: "alice", Device: "dev-1"},
		{AtStep: 2, Kind: "hostdown", Host: "proxy-fast"},
		{AtStep: 2, Kind: "hostdown", Host: "proxy-slow"},
	}
	sc.Steps = 4
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DegradedSteps() == 0 {
		t.Error("total outage must show degraded steps")
	}
	last := rep.Sessions[0].Samples[3]
	if !last.Degraded || last.Path != "sender,fast,receiver" {
		t.Errorf("final sample = %+v, want degraded on its last chain", last)
	}
}

func TestScenarioValidatesFaultEvents(t *testing.T) {
	sc := scenario()
	sc.Events = []Event{{AtStep: 1, Kind: "hostdown"}}
	if err := sc.Validate(); err == nil {
		t.Error("hostdown without host must fail validation")
	}
	sc.Events = []Event{{AtStep: 1, Kind: "serviceup"}}
	if err := sc.Validate(); err == nil {
		t.Error("serviceup without service must fail validation")
	}
}
