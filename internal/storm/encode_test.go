package storm

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"qoschain/internal/graph"
	"qoschain/internal/media"
	"qoschain/internal/overlay"
)

// encodeAlphabet mixes what names are made of with everything
// json.Marshal escapes: quotes, backslashes, control characters, HTML
// characters, U+2028/U+2029, other multi-byte runes and bytes that are
// not UTF-8.
var encodeAlphabet = []string{
	"a", "r", "s", "1", "-", "_", "#", ".", " ", "sender", "p1", "receiver",
	`"`, `\`, "\b", "\f", "\n", "\r", "\t", "\x00", "\x1f", "\x7f",
	"<", ">", "&", "\u2028", "\u2029", "é", "日本", "\U0001F600",
	"\xff", "\xc3", "\xe2\x80",
}

func randomName(rng *rand.Rand) string {
	var b []byte
	for n := rng.Intn(5); n > 0; n-- {
		b = append(b, encodeAlphabet[rng.Intn(len(encodeAlphabet))]...)
	}
	return string(b)
}

// randomFloat covers json.Marshal's two float forms and the boundaries
// between them, signed zeros and values with long shortest forms.
func randomFloat(rng *rand.Rand) float64 {
	switch rng.Intn(10) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return []float64{1e-6, 9.99999e-7, 1e21, 9.99999e20, 1e-7, 1e-10, 1e22, 5e-324, math.MaxFloat64}[rng.Intn(9)]
	case 3:
		return -rng.Float64() * math.Pow(10, float64(rng.Intn(50)-25))
	case 4:
		return float64(rng.Intn(100000))
	default:
		return rng.Float64() * math.Pow(10, float64(rng.Intn(50)-25))
	}
}

// randomRecord draws a storm record. legacy marks the plans with their
// storm sequence, as a storm-class record of the old journal layout
// carried it.
func randomRecord(rng *rand.Rand, legacy bool) *record {
	rec := &record{Storm: rng.Intn(3) * rng.Intn(1000)}
	switch rng.Intn(4) {
	case 0: // nil map: omitted
	case 1:
		rec.Links = map[string][]overlay.LinkRef{} // empty map: omitted too
	default:
		rec.Links = make(map[string][]overlay.LinkRef)
		for n := 1 + rng.Intn(4); n > 0; n-- {
			var links []overlay.LinkRef
			if rng.Intn(5) > 0 {
				links = []overlay.LinkRef{}
				for k := rng.Intn(4); k > 0; k-- {
					links = append(links, overlay.LinkRef{From: randomName(rng), To: randomName(rng)})
				}
			}
			rec.Links[randomName(rng)] = links
		}
	}
	for n := rng.Intn(4); n > 0; n-- {
		p := classPlan{
			Key:          randomName(rng),
			Outcome:      []string{OutcomeUnchanged, OutcomeReplanned, OutcomeDegraded, OutcomeNoChain, randomName(rng)}[rng.Intn(5)],
			Found:        rng.Intn(2) == 0,
			Satisfaction: randomFloat(rng),
			Cost:         randomFloat(rng),
			Kbps:         randomFloat(rng),
			Degraded:     rng.Intn(2) == 0,
		}
		if legacy {
			p.Storm = rec.Storm
		}
		for k := rng.Intn(4); k > 0; k-- {
			p.Path = append(p.Path, graph.NodeID(randomName(rng)))
			p.Formats = append(p.Formats, media.Format{Kind: media.Kind(rng.Intn(4) - 1), Encoding: randomName(rng), Profile: randomName(rng)})
		}
		if rng.Intn(4) == 0 {
			p.Path = []graph.NodeID{} // empty, not nil: omitted all the same
		}
		if rng.Intn(3) > 0 {
			p.Params = media.Params{}
			for k := rng.Intn(4); k > 0; k-- {
				p.Params[media.Param(randomName(rng))] = randomFloat(rng)
			}
		}
		for k := rng.Intn(3); k > 0; k-- {
			p.Dropped = append(p.Dropped, randomName(rng))
		}
		rec.Plans = append(rec.Plans, p)
	}
	return rec
}

// TestRecordEncoderMatchesMarshal is the storm record encoder's oracle:
// seeded random records — legacy-shaped ones included — encoded by one
// reused encoder must equal json.Marshal's bytes exactly, and a record
// json.Marshal refuses (a NaN or infinite float) must fail too.
func TestRecordEncoderMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	var enc recordEncoder
	for i := 0; i < 5000; i++ {
		rec := randomRecord(rng, i%3 == 0)
		if i%50 == 0 && len(rec.Plans) > 0 {
			rec.Plans[0].Kbps = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[i%3]
		}
		want, wantErr := json.Marshal(rec)
		got, gotErr := enc.encode(rec)
		if (wantErr != nil) != (gotErr != nil) {
			t.Fatalf("record %d: encode err = %v, json.Marshal err = %v", i, gotErr, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d differs from json.Marshal\n got %s\nwant %s", i, got, want)
		}
	}
}

// TestRecordEncoderAllocatesNothingWarm pins the point of the encoder:
// once its buffer has grown, a record costs no allocation.
func TestRecordEncoderAllocatesNothingWarm(t *testing.T) {
	rec := &record{
		Storm: 7,
		Links: map[string][]overlay.LinkRef{"r2": {{From: "p1", To: "p2"}}, "r1": {{From: "sender", To: "p1"}}},
		Plans: []classPlan{{
			Key: "k", Outcome: OutcomeReplanned, Found: true,
			Path:         []graph.NodeID{"sender", "T1", "receiver"},
			Formats:      []media.Format{media.Opaque(1), media.Opaque(2)},
			Params:       media.Params{media.ParamFrameRate: 27.5, media.ParamResolution: 1e-7},
			Satisfaction: 0.9, Cost: 2, Kbps: 2750, Dropped: []string{"k#0"},
		}},
	}
	var enc recordEncoder
	if _, err := enc.encode(rec); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { enc.encode(rec) }); n != 0 { //nolint:errcheck
		t.Fatalf("warm encode allocates %.0f times, want 0", n)
	}
}
