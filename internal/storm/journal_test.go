package storm_test

// Durability tests: the storm records a controller hands its sink —
// journaled here into a real write-ahead log, as the session manager
// does — replay onto a freshly rebuilt controller to the byte-identical
// live state, and a storm cut short mid-fan-out (a journal crash or the
// halt crash site) resumes to the state a crash-free run reaches.

import (
	"encoding/json"
	"errors"
	"testing"

	"qoschain/internal/journal"
	"qoschain/internal/storm"
)

// sinkRecord wraps one storm record for the log.
type sinkRecord struct {
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data"`
}

// walSink journals the controller's records into a write-ahead log at
// dir; fp may arm journal crash sites.
func walSink(t *testing.T, dir string, fp *journal.FailPoints) func(string, json.RawMessage) error {
	t.Helper()
	log, _, err := journal.OpenLog(dir, journal.Options{FailPoints: fp})
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	t.Cleanup(func() { log.Close() })
	return func(kind string, data json.RawMessage) error {
		rec, err := json.Marshal(sinkRecord{Kind: kind, Data: data})
		if err != nil {
			return err
		}
		_, err = log.Append(rec)
		return err
	}
}

// populate registers the canonical scenario's derived state: two
// classes with six members each.
func populate(t *testing.T, c *storm.Controller) {
	t.Helper()
	for _, ideal := range []float64{30, 24} {
		cls, err := c.AddClass(classSpec("r1", ideal, 0.6))
		if err != nil {
			t.Fatalf("AddClass %.0f: %v", ideal, err)
		}
		if _, err := c.Attach(cls.Key(), 6); err != nil {
			t.Fatalf("Attach %.0f: %v", ideal, err)
		}
	}
}

// buildScenario runs the canonical scenario — populate, a backbone
// collapse, one storm — on a controller built from cfg. stormErr is
// Storm's error.
func buildScenario(t *testing.T, cfg storm.Config) (c *storm.Controller, reg storm.Region, stormErr error) {
	t.Helper()
	reg = buildRegion("r1", 80000)
	c, err := storm.Open(cfg, []storm.Region{reg})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	populate(t, c)
	collapse(t, c, reg, 0.5)
	_, stormErr = c.Storm()
	return c, reg, stormErr
}

// replay recovers the log at dir the way the session manager does on
// restart: rebuild the derived state on a fresh, pre-fault region,
// re-apply the collapse, hand the surviving storm records back in
// order, then finish any storm the log left open. kinds lists the
// replayed records.
func replay(t *testing.T, dir string) (c *storm.Controller, reg storm.Region, resumed *storm.Report, kinds []string) {
	t.Helper()
	log, rec, err := journal.OpenLog(dir, journal.Options{})
	if err != nil {
		t.Fatalf("reopen log: %v", err)
	}
	defer log.Close()
	reg = buildRegion("r1", 80000)
	c, err = storm.Open(storm.Config{}, []storm.Region{reg})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	populate(t, c)
	collapse(t, c, reg, 0.5)
	for _, r := range rec.Records {
		var sr sinkRecord
		if err := json.Unmarshal(r.Data, &sr); err != nil {
			t.Fatalf("record %d: %v", r.Seq, err)
		}
		if err := c.ReplayRecord(sr.Kind, sr.Data); err != nil {
			t.Fatalf("ReplayRecord %d (%s): %v", r.Seq, sr.Kind, err)
		}
		kinds = append(kinds, sr.Kind)
	}
	resumed, err = c.ResumeOpenStorm()
	if err != nil {
		t.Fatalf("ResumeOpenStorm: %v", err)
	}
	return c, reg, resumed, kinds
}

func TestJournalReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, reg, err := buildScenario(t, storm.Config{Sink: walSink(t, dir, nil)})
	if err != nil {
		t.Fatalf("Storm: %v", err)
	}
	want, err := c.Fingerprint()
	if err != nil {
		t.Fatalf("Fingerprint: %v", err)
	}
	wantReserved := reg.Net.TotalReservedKbps()

	c2, reg2, resumed, kinds := replay(t, dir)
	// Only the fan-out records reach the sink: one begin, one record per
	// affected class, one end.
	if n := len(kinds); n < 3 || kinds[0] != "storm-begin" || kinds[n-1] != "storm-end" {
		t.Fatalf("journaled records = %v, want storm-begin, storm-class..., storm-end", kinds)
	}
	for _, kind := range kinds[1 : len(kinds)-1] {
		if kind != "storm-class" {
			t.Fatalf("journaled records = %v, want only storm-class between begin and end", kinds)
		}
	}
	if resumed != nil {
		t.Fatalf("a closed storm resumed: %+v", resumed)
	}
	if c2.Classes() != 2 || c2.Sessions() != 12 {
		t.Fatalf("replayed %d classes / %d sessions, want 2 / 12", c2.Classes(), c2.Sessions())
	}
	got, err := c2.Fingerprint()
	if err != nil {
		t.Fatalf("Fingerprint after replay: %v", err)
	}
	if got != want {
		t.Fatalf("replayed state differs from live state\nlive:     %s\nreplayed: %s", want, got)
	}
	if r := reg2.Net.TotalReservedKbps(); r != wantReserved {
		t.Fatalf("replayed overlay reserves %.1f kbps, live reserved %.1f", r, wantReserved)
	}
	if d := leak(c2, reg2); d != 0 {
		t.Fatalf("leak after replay: %.3f kbps", d)
	}
}

func TestCrashMidStormResumes(t *testing.T) {
	// Control: the same scenario with no crash.
	control, _, err := buildScenario(t, storm.Config{})
	if err != nil {
		t.Fatalf("control Storm: %v", err)
	}
	want, err := control.Fingerprint()
	if err != nil {
		t.Fatalf("control Fingerprint: %v", err)
	}

	// The journal failpoints kill the log on its second append — the
	// first class fan-out after the storm-begin — so the fan-out never
	// becomes durable; the halt crash site dies right after that fan-out
	// is journaled.
	for _, tc := range []struct {
		point journal.FailPoint
		halt  int
	}{
		{point: journal.FPAppend},
		{point: journal.FPTornAppend},
		{point: "halt", halt: 1},
	} {
		t.Run(string(tc.point), func(t *testing.T) {
			dir := t.TempDir()
			fp := journal.NewFailPoints()
			if tc.halt == 0 {
				fp.Arm(tc.point, 2)
			}
			c, reg, stormErr := buildScenario(t, storm.Config{Sink: walSink(t, dir, fp), HaltAfterFanouts: tc.halt})
			switch {
			case tc.halt > 0 && !errors.Is(stormErr, storm.ErrHalted):
				t.Fatalf("Storm error = %v, want ErrHalted", stormErr)
			case tc.halt == 0 && !journal.IsCrash(stormErr):
				t.Fatalf("Storm error = %v, want a journal crash", stormErr)
			}
			if d := leak(c, reg); d != 0 {
				t.Fatalf("leak at crash point: %.3f kbps", d)
			}

			c2, reg2, resumed, _ := replay(t, dir)
			if resumed == nil || !resumed.Resumed {
				t.Fatalf("ResumeOpenStorm = %+v, want a resumed storm", resumed)
			}
			got, err := c2.Fingerprint()
			if err != nil {
				t.Fatalf("Fingerprint after resume: %v", err)
			}
			if got != want {
				t.Fatalf("crash-resume state differs from crash-free run\ncontrol: %s\nresumed: %s", want, got)
			}
			if d := leak(c2, reg2); d != 0 {
				t.Fatalf("leak after resume: %.3f kbps", d)
			}
		})
	}
}
