package registry

import (
	"testing"
	"time"

	"qoschain/internal/media"
	"qoschain/internal/service"
)

func conv(id service.ID, from, to media.Format) *service.Service {
	return service.FormatConverter(id, from, to)
}

func TestRegisterAndLookup(t *testing.T) {
	r := New()
	s := conv("c1", media.ImageJPEG, media.ImageGIF)
	if err := r.Register(s, 0); err != nil {
		t.Fatal(err)
	}
	got, ok := r.Lookup("c1")
	if !ok {
		t.Fatal("registered service should be found")
	}
	if got.ID != "c1" || !got.Accepts(media.ImageJPEG) {
		t.Errorf("lookup returned %v", got)
	}
	// Returned copy must not alias registry state.
	got.Inputs[0] = media.TextHTML
	again, _ := r.Lookup("c1")
	if !again.Accepts(media.ImageJPEG) {
		t.Error("Lookup must return an isolated copy")
	}
}

func TestRegisterRejectsInvalid(t *testing.T) {
	r := New()
	if err := r.Register(&service.Service{}, 0); err == nil {
		t.Error("invalid service should be rejected")
	}
}

func TestRegisterReplaces(t *testing.T) {
	r := New()
	if err := r.Register(conv("c1", media.ImageJPEG, media.ImageGIF), 0); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(conv("c1", media.TextHTML, media.TextWML), 0); err != nil {
		t.Fatal(err)
	}
	if got := r.ByInput(media.ImageJPEG); len(got) != 0 {
		t.Error("old index entries must be removed on re-register")
	}
	if got := r.ByInput(media.TextHTML); len(got) != 1 {
		t.Error("new index entries must be present")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1", r.Len())
	}
}

func TestByInputByOutputSorted(t *testing.T) {
	r := New()
	for _, id := range []service.ID{"z9", "a1", "m5"} {
		if err := r.Register(conv(id, media.ImageJPEG, media.ImageGIF), 0); err != nil {
			t.Fatal(err)
		}
	}
	got := r.ByInput(media.ImageJPEG)
	if len(got) != 3 || got[0].ID != "a1" || got[1].ID != "m5" || got[2].ID != "z9" {
		t.Errorf("ByInput order: %v %v %v", got[0].ID, got[1].ID, got[2].ID)
	}
	outs := r.ByOutput(media.ImageGIF)
	if len(outs) != 3 {
		t.Errorf("ByOutput count = %d", len(outs))
	}
	if len(r.ByOutput(media.ImageJPEG)) != 0 {
		t.Error("ByOutput of input format should be empty")
	}
}

func TestDeregister(t *testing.T) {
	r := New()
	if err := r.Register(conv("c1", media.ImageJPEG, media.ImageGIF), 0); err != nil {
		t.Fatal(err)
	}
	if err := r.Deregister("c1"); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Lookup("c1"); ok {
		t.Error("deregistered service should be gone")
	}
	if len(r.ByInput(media.ImageJPEG)) != 0 {
		t.Error("deregistered service must leave the index")
	}
	if err := r.Deregister("c1"); err == nil {
		t.Error("double deregister should fail")
	}
}

func TestLeaseExpiry(t *testing.T) {
	clock := NewFakeClock()
	r := NewWithClock(clock)
	if err := r.Register(conv("c1", media.ImageJPEG, media.ImageGIF), time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Lookup("c1"); !ok {
		t.Fatal("service should be live inside the lease")
	}
	clock.Advance(2 * time.Minute)
	if _, ok := r.Lookup("c1"); ok {
		t.Error("service should be invisible after lease expiry")
	}
	if r.Len() != 0 {
		t.Errorf("Len = %d, want 0 after expiry", r.Len())
	}
	if len(r.ByInput(media.ImageJPEG)) != 0 {
		t.Error("expired service should not appear in queries")
	}
}

func TestRenewExtendsLease(t *testing.T) {
	clock := NewFakeClock()
	r := NewWithClock(clock)
	if err := r.Register(conv("c1", media.ImageJPEG, media.ImageGIF), time.Minute); err != nil {
		t.Fatal(err)
	}
	clock.Advance(30 * time.Second)
	if err := r.Renew("c1", time.Minute); err != nil {
		t.Fatal(err)
	}
	clock.Advance(45 * time.Second) // 75s after registration, 45s after renew
	if _, ok := r.Lookup("c1"); !ok {
		t.Error("renewed lease should still be live")
	}
	clock.Advance(time.Minute)
	if err := r.Renew("c1", time.Minute); err == nil {
		t.Error("renew after expiry should fail")
	}
	if err := r.Renew("ghost", time.Minute); err == nil {
		t.Error("renew of unknown service should fail")
	}
}

func TestRenewToUnlimited(t *testing.T) {
	clock := NewFakeClock()
	r := NewWithClock(clock)
	if err := r.Register(conv("c1", media.ImageJPEG, media.ImageGIF), time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := r.Renew("c1", 0); err != nil {
		t.Fatal(err)
	}
	clock.Advance(100 * time.Hour)
	if _, ok := r.Lookup("c1"); !ok {
		t.Error("lease renewed to 0 should never expire")
	}
}

func TestSweep(t *testing.T) {
	clock := NewFakeClock()
	r := NewWithClock(clock)
	_ = r.Register(conv("c1", media.ImageJPEG, media.ImageGIF), time.Minute)
	_ = r.Register(conv("c2", media.TextHTML, media.TextWML), 0)
	clock.Advance(2 * time.Minute)
	if n := r.Sweep(); n != 1 {
		t.Errorf("Sweep removed %d, want 1", n)
	}
	if _, ok := r.Lookup("c1"); ok {
		t.Error("expired c1 should be gone after the sweep")
	}
	if _, ok := r.Lookup("c2"); !ok {
		t.Error("unexpiring c2 should survive the sweep")
	}
	if r.Len() != 1 {
		t.Errorf("Len after sweep = %d, want 1", r.Len())
	}
	if n := r.Sweep(); n != 0 {
		t.Errorf("second sweep removed %d, want 0", n)
	}
}

func TestAllSorted(t *testing.T) {
	r := New()
	_ = r.Register(conv("b", media.ImageJPEG, media.ImageGIF), 0)
	_ = r.Register(conv("a", media.TextHTML, media.TextWML), 0)
	all := r.All()
	if len(all) != 2 || all[0].ID != "a" || all[1].ID != "b" {
		t.Errorf("All = %v", all)
	}
}

func TestConcurrentRegisterQuery(t *testing.T) {
	r := New()
	done := make(chan bool)
	go func() {
		for i := 0; i < 200; i++ {
			_ = r.Register(conv(service.ID(media.Opaque(i).Encoding), media.ImageJPEG, media.ImageGIF), 0)
		}
		done <- true
	}()
	go func() {
		for i := 0; i < 200; i++ {
			r.ByInput(media.ImageJPEG)
			r.Len()
		}
		done <- true
	}()
	<-done
	<-done
	if r.Len() != 200 {
		t.Errorf("Len = %d, want 200", r.Len())
	}
}
