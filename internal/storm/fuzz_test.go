package storm_test

import (
	"encoding/json"
	"testing"
)

// FuzzReplayRecord replays arbitrary (kind, payload) pairs onto a
// populated controller with a backbone collapse pending, then storms.
// Nothing may panic, and a record ReplayRecord rejects must leave the
// controller's fingerprint untouched.
func FuzzReplayRecord(f *testing.F) {
	_, _, live := liveStorm(f)
	f.Add("storm", string(live))
	spec := classSpec("r1", 30, 0.6)
	key := spec.Key()
	f.Add("storm-begin", `{"storm":1,"links":{"r1":[{"from":"sender","to":"p1"}]},"classes":["`+key+`"]}`)
	f.Add("storm-class", `{"storm":1,"key":"`+key+`","outcome":"replanned","found":true,"path":["sender","T1","receiver"],"formats":[{"Kind":1,"Encoding":"mpeg1","Profile":""},{"Kind":1,"Encoding":"h263","Profile":""}],"params":{"framerate":30},"satisfaction":1,"cost":1,"kbps":3000,"degraded":false,"dropped":["`+key+`#0"]}`)
	f.Add("storm-end", `{"storm":1}`)

	f.Fuzz(func(t *testing.T, kind, payload string) {
		c, _ := rebuild(t)
		before := fingerprint(t, c)
		if err := c.ReplayRecord(kind, json.RawMessage(payload)); err != nil {
			if after := fingerprint(t, c); after != before {
				t.Fatalf("rejected %s record changed the controller: %v\nbefore: %s\nafter:  %s", kind, err, before, after)
			}
		}
		if _, _, err := c.Storm(); err != nil {
			t.Fatalf("Storm after replay: %v", err)
		}
		fingerprint(t, c)
	})
}
