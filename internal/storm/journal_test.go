package storm_test

// Durability tests: the one record a storm returns — journaled here
// into a real write-ahead log, as the session manager does — replays
// onto a freshly rebuilt controller to the byte-identical live state; a
// record lost to a crash leaves the storm's links pending, and the next
// Storm re-plans them to the state a crash-free run reaches; journals
// in the old three-record layout still replay; and no record, however
// malformed, can crash the controller or half-apply.

import (
	"encoding/json"
	"testing"

	"qoschain/internal/journal"
	"qoschain/internal/storm"
)

// walRecord wraps one storm record for the log.
type walRecord struct {
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data"`
}

// appendRecords journals storm records into a write-ahead log at dir
// with one group commit; fp may arm journal crash sites. It returns the
// append error.
func appendRecords(t *testing.T, dir string, fp *journal.FailPoints, recs ...walRecord) error {
	t.Helper()
	log, _, err := journal.OpenLog(dir, journal.Options{FailPoints: fp})
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	defer log.Close()
	datas := make([][]byte, len(recs))
	for i, r := range recs {
		if datas[i], err = json.Marshal(r); err != nil {
			t.Fatalf("encoding record: %v", err)
		}
	}
	_, err = log.Append(datas...)
	return err
}

// populate registers the canonical scenario's derived state: two
// classes with six members each.
func populate(t testing.TB, c *storm.Controller) {
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

// rebuild opens a controller over a fresh, pre-fault region and
// re-applies the derived state up to the storm: the populated classes
// and the backbone collapse — what the session manager's own command
// replay reconstructs.
func rebuild(t testing.TB) (*storm.Controller, storm.Region) {
	t.Helper()
	reg := buildRegion("r1", 80000)
	c, err := storm.Open(storm.Config{}, []storm.Region{reg})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	populate(t, c)
	collapse(t, c, reg, 0.5)
	return c, reg
}

// liveStorm runs the canonical scenario — populate, a backbone
// collapse, one storm — and returns the controller, its region and the
// storm's record.
func liveStorm(t testing.TB) (*storm.Controller, storm.Region, json.RawMessage) {
	t.Helper()
	c, reg := rebuild(t)
	rep, rec, err := c.Storm()
	if err != nil || rep == nil {
		t.Fatalf("Storm = %+v, %v", rep, err)
	}
	return c, reg, rec
}

// replayLog rebuilds a controller and hands it the storm records the
// log at dir holds, in order; it returns the record kinds replayed.
func replayLog(t *testing.T, dir string) (*storm.Controller, storm.Region, []string) {
	t.Helper()
	log, rec, err := journal.OpenLog(dir, journal.Options{})
	if err != nil {
		t.Fatalf("reopen log: %v", err)
	}
	defer log.Close()
	c, reg := rebuild(t)
	var kinds []string
	for _, r := range rec.Records {
		var wr walRecord
		if err := json.Unmarshal(r.Data, &wr); err != nil {
			t.Fatalf("record %d: %v", r.Seq, err)
		}
		if err := c.ReplayRecord(wr.Kind, wr.Data); err != nil {
			t.Fatalf("ReplayRecord %d (%s): %v", r.Seq, wr.Kind, err)
		}
		kinds = append(kinds, wr.Kind)
	}
	return c, reg, kinds
}

// fingerprint fails the test on a fingerprint error.
func fingerprint(t testing.TB, c *storm.Controller) string {
	t.Helper()
	fp, err := c.Fingerprint()
	if err != nil {
		t.Fatalf("Fingerprint: %v", err)
	}
	return fp
}

// legacyRecords re-encodes a storm record in the three-record layout
// journals used before a storm was one record: storm-begin with the
// links and the class order, one storm-class per plan, storm-end.
func legacyRecords(t *testing.T, data json.RawMessage) []walRecord {
	t.Helper()
	var rec struct {
		Storm int                          `json:"storm"`
		Links json.RawMessage              `json:"links"`
		Plans []map[string]json.RawMessage `json:"plans"`
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("decoding storm record: %v", err)
	}
	seq, _ := json.Marshal(rec.Storm)
	var keys []json.RawMessage
	for _, p := range rec.Plans {
		keys = append(keys, p["key"])
	}
	begin, _ := json.Marshal(map[string]any{"storm": rec.Storm, "links": rec.Links, "classes": keys})
	out := []walRecord{{Kind: "storm-begin", Data: begin}}
	for _, p := range rec.Plans {
		p["storm"] = seq
		cls, _ := json.Marshal(p)
		out = append(out, walRecord{Kind: "storm-class", Data: cls})
	}
	end, _ := json.Marshal(map[string]int{"storm": rec.Storm})
	return append(out, walRecord{Kind: "storm-end", Data: end})
}

// TestJournalReplayRoundTrip journals a storm's record — and, as the
// second input, the same storm in the old three-record layout — and
// replays it onto a rebuilt controller: the state is byte-identical to
// the live run, nothing is left pending, and the recorder holds one
// closed, replayed flight.
func TestJournalReplayRoundTrip(t *testing.T) {
	c, reg, rec := liveStorm(t)
	want := fingerprint(t, c)
	wantReserved := reg.Net.TotalReservedKbps()
	for _, tc := range []struct {
		name string
		recs []walRecord
	}{
		{"record", []walRecord{{Kind: storm.RecordKind, Data: rec}}},
		{"legacy", legacyRecords(t, rec)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := appendRecords(t, dir, nil, tc.recs...); err != nil {
				t.Fatalf("append: %v", err)
			}
			c2, reg2, kinds := replayLog(t, dir)
			if len(kinds) != len(tc.recs) {
				t.Fatalf("replayed %v, want %d records", kinds, len(tc.recs))
			}
			if c2.Classes() != 2 || c2.Sessions() != 12 {
				t.Fatalf("replayed %d classes / %d sessions, want 2 / 12", c2.Classes(), c2.Sessions())
			}
			if got := fingerprint(t, c2); got != want {
				t.Fatalf("replayed state differs from live state\nlive:     %s\nreplayed: %s", want, got)
			}
			if r := reg2.Net.TotalReservedKbps(); r != wantReserved {
				t.Fatalf("replayed overlay reserves %.1f kbps, live reserved %.1f", r, wantReserved)
			}
			if d := leak(c2, reg2); d != 0 {
				t.Fatalf("leak after replay: %.3f kbps", d)
			}
			// The storm absorbed the collapse's links: nothing is left
			// pending.
			if rep, _, err := c2.Storm(); err != nil || rep != nil {
				t.Fatalf("Storm after replay = %+v, %v; want nothing pending", rep, err)
			}
			fs := c2.Flights()
			if len(fs) != 1 || fs[0].Storm != 1 || fs[0].Classes == 0 ||
				len(fs[0].Events) != fs[0].Classes+2 ||
				fs[0].Events[0].Kind != "begin" || fs[0].Events[len(fs[0].Events)-1].Kind != "end" {
				t.Fatalf("replayed flights = %+v, want one closed begin…end flight for storm 1", fs)
			}
			for _, ev := range fs[0].Events {
				if !ev.Replayed {
					t.Fatalf("replayed flight has a live event: %+v", ev)
				}
			}
		})
	}
}

// TestCrashMidStormResumes loses the storm's record — the journal dies
// before it or halfway through it, or an old-layout journal holds the
// storm's begin and first class record but no end — and proves that
// replay applies none of the storm and that the next Storm reaches the
// exact state a crash-free run reaches.
func TestCrashMidStormResumes(t *testing.T) {
	control, _, rec := liveStorm(t)
	want := fingerprint(t, control)

	for _, tc := range []struct {
		name  string
		write func(t *testing.T, dir string)
	}{
		{name: string(journal.FPAppend), write: func(t *testing.T, dir string) {
			fp := journal.NewFailPoints()
			fp.Arm(journal.FPAppend, 1)
			if err := appendRecords(t, dir, fp, walRecord{Kind: storm.RecordKind, Data: rec}); !journal.IsCrash(err) {
				t.Fatalf("append error = %v, want a journal crash", err)
			}
		}},
		{name: string(journal.FPTornAppend), write: func(t *testing.T, dir string) {
			fp := journal.NewFailPoints()
			fp.Arm(journal.FPTornAppend, 1)
			if err := appendRecords(t, dir, fp, walRecord{Kind: storm.RecordKind, Data: rec}); !journal.IsCrash(err) {
				t.Fatalf("append error = %v, want a journal crash", err)
			}
		}},
		{name: "halt", write: func(t *testing.T, dir string) {
			// The old layout, halted after one fan-out.
			if err := appendRecords(t, dir, nil, legacyRecords(t, rec)[:2]...); err != nil {
				t.Fatalf("append: %v", err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.write(t, dir)
			c, reg, _ := replayLog(t, dir)
			fresh, _ := rebuild(t)
			if got := fingerprint(t, c); got != fingerprint(t, fresh) {
				t.Fatalf("replay applied part of a storm that never committed\ngot:  %s\nwant: %s", got, fingerprint(t, fresh))
			}
			rep, rec2, err := c.Storm()
			if err != nil || rep == nil || len(rec2) == 0 {
				t.Fatalf("Storm after recovery = %+v, %v; want the lost storm re-run", rep, err)
			}
			if rep.Storm != 1 {
				t.Errorf("re-run storm has sequence %d, want the lost storm's 1", rep.Storm)
			}
			if got := fingerprint(t, c); got != want {
				t.Fatalf("recovered state differs from crash-free run\ncontrol:   %s\nrecovered: %s", want, got)
			}
			if d := leak(c, reg); d != 0 {
				t.Fatalf("leak after recovery: %.3f kbps", d)
			}
		})
	}
}

// TestReplayRejectsUnrenderablePlan is the regression for a plan that
// claims a chain but carries no path: replay must refuse it whole — in
// the old layout and in a storm record — and the next storm must run.
// Before validation, replay accepted the plan and the next Storm
// panicked rendering the empty chain's hosts.
func TestReplayRejectsUnrenderablePlan(t *testing.T) {
	c, reg := rebuild(t)
	before := fingerprint(t, c)
	spec := classSpec("r1", 30, 0.6)
	key := spec.Key()
	bad := `{"storm":1,"key":"` + key + `","outcome":"replanned","found":true,"path":[],"satisfaction":1,"cost":1,"kbps":3000,"degraded":false}`

	if err := c.ReplayRecord("storm-class", json.RawMessage(bad)); err == nil {
		t.Fatal("a storm-class outside any storm was accepted")
	}
	if err := c.ReplayRecord("storm-begin", json.RawMessage(`{"storm":1,"links":{},"classes":["`+key+`"]}`)); err != nil {
		t.Fatalf("storm-begin: %v", err)
	}
	if err := c.ReplayRecord("storm-class", json.RawMessage(bad)); err == nil {
		t.Fatal("a found plan without a path was accepted")
	}
	if err := c.ReplayRecord("storm-end", json.RawMessage(`{"storm":1}`)); err != nil {
		t.Fatalf("storm-end: %v", err)
	}
	good := `{"key":"` + key + `","outcome":"unchanged","found":false}`
	if err := c.ReplayRecord(storm.RecordKind, json.RawMessage(`{"storm":2,"plans":[`+good+`,`+bad+`]}`)); err == nil {
		t.Fatal("a storm record with a pathless found plan was accepted")
	}
	if got := fingerprint(t, c); got != before {
		t.Fatalf("rejected records changed the controller\nbefore: %s\nafter:  %s", before, got)
	}
	if _, _, err := c.Storm(); err != nil {
		t.Fatalf("Storm after rejected records: %v", err)
	}
	if d := leak(c, reg); d != 0 {
		t.Fatalf("leak: %.3f kbps", d)
	}
}
