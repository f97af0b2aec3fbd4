package session

import (
	"testing"

	"qoschain/internal/core"
	"qoschain/internal/media"
	"qoschain/internal/overlay"
	"qoschain/internal/pipeline"
	"qoschain/internal/profile"
	"qoschain/internal/satisfaction"
	"qoschain/internal/service"
)

// testbed: sender can reach the receiver via converter A (proxy pa) or
// converter B (proxy pb); both emit a format the device decodes.
func testbed(t *testing.T) (Config, *overlay.Network) {
	t.Helper()
	net := overlay.New()
	net.AddLink("sender", "pa", 3000, 10, 0)
	net.AddLink("pa", "dev", 3000, 10, 0)
	net.AddLink("sender", "pb", 2000, 10, 0)
	net.AddLink("pb", "dev", 2000, 10, 0)

	convA := service.FormatConverter("conv-a", media.Opaque(1), media.Opaque(9))
	convA.Host = "pa"
	convB := service.FormatConverter("conv-b", media.Opaque(1), media.Opaque(9))
	convB.Host = "pb"

	cfg := Config{
		Content: &profile.Content{ID: "c", Variants: []media.Descriptor{
			{Format: media.Opaque(1), Params: media.Params{media.ParamFrameRate: 30}},
		}},
		Device: &profile.Device{ID: "dev", Software: profile.Software{
			Decoders: []media.Format{media.Opaque(9)},
		}},
		Services:     []*service.Service{convA, convB},
		Net:          net,
		SenderHost:   "sender",
		ReceiverHost: "dev",
		Select: core.Config{Profile: satisfaction.NewProfile(map[media.Param]satisfaction.Function{
			media.ParamFrameRate: satisfaction.Linear{M: 0, I: 30},
		})},
	}
	return cfg, net
}

func TestNewComposesInitialChain(t *testing.T) {
	cfg, _ := testbed(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Result()
	if !res.Found {
		t.Fatal("initial composition must succeed")
	}
	// conv-a path carries 30 fps, conv-b only 20 → conv-a wins.
	if core.PathString(res.Path) != "sender,conv-a,receiver" {
		t.Errorf("initial path = %s", core.PathString(res.Path))
	}
	if res.Satisfaction != 1 {
		t.Errorf("initial satisfaction = %v", res.Satisfaction)
	}
	if s.Recompositions() != 0 {
		t.Error("fresh session has no recompositions")
	}
}

func TestNewFailsWithoutChain(t *testing.T) {
	cfg, net := testbed(t)
	net.RemoveLink("sender", "pa")
	net.RemoveLink("sender", "pb")
	if _, err := New(cfg); err == nil {
		t.Error("unreachable receiver must fail composition")
	}
}

func TestReevaluateDegradedSwitchesChain(t *testing.T) {
	cfg, net := testbed(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Degrade the chain in use: conv-a's exit link drops to 600 kbps
	// (6 fps); conv-b's 20 fps chain becomes better.
	if err := net.SetBandwidth("pa", "dev", 600); err != nil {
		t.Fatal(err)
	}
	changed, err := s.Reevaluate()
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("session should switch to conv-b")
	}
	if core.PathString(s.Result().Path) != "sender,conv-b,receiver" {
		t.Errorf("path after degradation = %s", core.PathString(s.Result().Path))
	}
	if s.Recompositions() != 1 {
		t.Errorf("recompositions = %d", s.Recompositions())
	}
	if s.History()[0].Reason != "degraded" {
		t.Errorf("reason = %s", s.History()[0].Reason)
	}
}

func TestReevaluateBrokenChain(t *testing.T) {
	cfg, net := testbed(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.RemoveLink("pa", "dev")
	changed, err := s.Reevaluate()
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("broken chain must be replaced")
	}
	if s.History()[0].Reason != "broken" {
		t.Errorf("reason = %s", s.History()[0].Reason)
	}
	if core.PathString(s.Result().Path) != "sender,conv-b,receiver" {
		t.Errorf("replacement path = %s", core.PathString(s.Result().Path))
	}
}

func TestReevaluateImprovedNetwork(t *testing.T) {
	cfg, net := testbed(t)
	// Start with conv-a degraded so conv-b is chosen initially.
	if err := net.SetBandwidth("pa", "dev", 600); err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if core.PathString(s.Result().Path) != "sender,conv-b,receiver" {
		t.Fatalf("setup: initial path = %s", core.PathString(s.Result().Path))
	}
	// conv-a recovers.
	if err := net.SetBandwidth("pa", "dev", 3000); err != nil {
		t.Fatal(err)
	}
	changed, err := s.Reevaluate()
	if err != nil {
		t.Fatal(err)
	}
	if !changed || s.History()[0].Reason != "improved" {
		t.Fatalf("recovery should switch back (changed=%v history=%v)", changed, s.History())
	}
	if s.Result().Satisfaction != 1 {
		t.Errorf("satisfaction after recovery = %v", s.Result().Satisfaction)
	}
}

func TestReevaluateStableNetworkNoChange(t *testing.T) {
	cfg, _ := testbed(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	changed, err := s.Reevaluate()
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Error("stable network must not trigger re-composition")
	}
}

func TestReevaluateWithinToleranceKeepsChain(t *testing.T) {
	cfg, net := testbed(t)
	cfg.Tolerance = 0.2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Mild degradation: 3000 → 2700 kbps is 27 fps, a 0.1 satisfaction
	// dip — inside the 0.2 tolerance.
	if err := net.SetBandwidth("pa", "dev", 2700); err != nil {
		t.Fatal(err)
	}
	changed, err := s.Reevaluate()
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Error("degradation within tolerance must not switch chains")
	}
	// The tracked satisfaction reflects the new reality.
	if got := s.Result().Satisfaction; got > 0.91 {
		t.Errorf("tracked satisfaction = %v, should have dropped to ~0.9", got)
	}
}

func TestReevaluateTotalPartitionKeepsLastChain(t *testing.T) {
	cfg, net := testbed(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.RemoveLink("sender", "pa")
	net.RemoveLink("sender", "pb")
	_, err = s.Reevaluate()
	if err == nil {
		t.Error("total partition should surface an error")
	}
	if s.Result() == nil {
		t.Error("session must keep its last chain for diagnostics")
	}
}

func TestHostsFollowCurrentChain(t *testing.T) {
	cfg, net := testbed(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hosts := s.Hosts()
	if len(hosts) != 3 || hosts[0] != "sender" || hosts[1] != "pa" || hosts[2] != "dev" {
		t.Errorf("Hosts = %v", hosts)
	}
	if err := net.SetBandwidth("pa", "dev", 600); err != nil {
		t.Fatal(err)
	}
	if changed, err := s.Reevaluate(); err != nil || !changed {
		t.Fatalf("degradation should switch to conv-b: changed=%v err=%v", changed, err)
	}
	hosts = s.Hosts()
	if len(hosts) != 3 || hosts[0] != "sender" || hosts[1] != "pb" || hosts[2] != "dev" {
		t.Errorf("Hosts after the switch = %v", hosts)
	}
}

// TestReevaluateDegradeStableRecover re-evaluates one session through a
// degradation, a quiet step and a recovery: it switches away, stays put,
// then switches back to the full-satisfaction chain.
func TestReevaluateDegradeStableRecover(t *testing.T) {
	cfg, net := testbed(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		bandwidth float64 // pa->dev kbps; 0 leaves the link alone
		changed   bool
		path      string
	}{
		{600, true, "sender,conv-b,receiver"},
		{0, false, "sender,conv-b,receiver"},
		{3000, true, "sender,conv-a,receiver"},
	}
	for i, st := range steps {
		if st.bandwidth > 0 {
			if err := net.SetBandwidth("pa", "dev", st.bandwidth); err != nil {
				t.Fatal(err)
			}
		}
		changed, err := s.Reevaluate()
		if err != nil {
			t.Fatalf("step %d: %v", i+1, err)
		}
		if changed != st.changed || core.PathString(s.Result().Path) != st.path {
			t.Errorf("step %d: changed=%v path=%s, want changed=%v path=%s",
				i+1, changed, core.PathString(s.Result().Path), st.changed, st.path)
		}
	}
	if got := s.Result().Satisfaction; got != 1 {
		t.Errorf("satisfaction after recovery = %v, want 1", got)
	}
	if s.Recompositions() != 2 {
		t.Errorf("recompositions = %d, want 2", s.Recompositions())
	}
}

func TestSessionReservesBandwidth(t *testing.T) {
	cfg, net := testbed(t)
	cfg.ReserveBandwidth = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// The conv-a chain delivers 30 fps = 3000 kbps; both hops are held.
	held := s.Reserved()
	if held["sender->pa"] != 3000 || held["pa->dev"] != 3000 {
		t.Errorf("Reserved = %v", held)
	}
	if got := net.AvailableBandwidth("sender", "pa"); got != 0 {
		t.Errorf("sender->pa available = %v, want 0", got)
	}
}

func TestTwoSessionsContend(t *testing.T) {
	cfg, net := testbed(t)
	cfg.ReserveBandwidth = true
	first, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	if first.Result().Satisfaction != 1 {
		t.Fatalf("first session sat = %v", first.Result().Satisfaction)
	}
	// The second session sees conv-a's path fully reserved and must
	// settle for conv-b's 20 fps.
	cfg2, _ := testbed(t)
	cfg2.Net = net
	cfg2.ReserveBandwidth = true
	second, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if core.PathString(second.Result().Path) != "sender,conv-b,receiver" {
		t.Errorf("second session path = %s", core.PathString(second.Result().Path))
	}
	if second.Result().Satisfaction >= 1 {
		t.Errorf("second session should be degraded, sat = %v", second.Result().Satisfaction)
	}
	// Closing the first session frees the good path; re-evaluating the
	// second session upgrades it.
	first.Close()
	changed, err := second.Reevaluate()
	if err != nil {
		t.Fatal(err)
	}
	if !changed || second.Result().Satisfaction != 1 {
		t.Errorf("after release the second session should upgrade: changed=%v sat=%v",
			changed, second.Result().Satisfaction)
	}
}

func TestReevaluateDoesNotSelfCongest(t *testing.T) {
	cfg, _ := testbed(t)
	cfg.ReserveBandwidth = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// With nothing else changing, the session must not see its own
	// reservation as congestion and flap.
	for i := 0; i < 3; i++ {
		changed, err := s.Reevaluate()
		if err != nil {
			t.Fatal(err)
		}
		if changed {
			t.Fatalf("iteration %d: self-congestion flap", i)
		}
	}
	if s.Result().Satisfaction != 1 {
		t.Errorf("satisfaction drifted to %v", s.Result().Satisfaction)
	}
}

func TestSessionStream(t *testing.T) {
	cfg, _ := testbed(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ex := pipeline.NewExecutor(1)
	defer ex.Close()
	stats, err := s.StreamOn(ex, 150, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FramesOut != 150 {
		t.Errorf("full-rate chain should deliver all frames, got %d", stats.FramesOut)
	}
	if stats.ChainDelayMs != 20 { // 10 + 10 ms
		t.Errorf("chain delay = %v, want 20", stats.ChainDelayMs)
	}
}
