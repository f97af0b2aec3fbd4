package storm

// encode.go writes a storm record without reflection. json.Marshal
// walks a record through reflect and sorts every map's keys into fresh
// slices, a sixth of a collapse storm's time. recordEncoder appends the
// same bytes — json.Marshal's field order, omitempty rules, map key
// order, float formatting and string escaping — into a buffer it keeps,
// so a storm's record costs no allocation once the buffer has grown.
// TestRecordEncoderMatchesMarshal holds the two to the same bytes.

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"qoschain/internal/media"
)

// recordEncoder encodes storm records into one reused buffer. Not safe
// for concurrent use; the controller calls it under c.mu.
type recordEncoder struct {
	buf    []byte
	keys   []string      // region names of the record's links, sorted
	params []media.Param // one plan's param names, sorted
}

// encode returns rec as json.Marshal encodes it. The bytes live in the
// encoder's buffer and stay valid until the next encode. A NaN or
// infinite float fails the encoding, as it fails json.Marshal.
func (e *recordEncoder) encode(rec *record) ([]byte, error) {
	b := append(e.buf[:0], `{"storm":`...)
	b = strconv.AppendInt(b, int64(rec.Storm), 10)
	if len(rec.Links) > 0 {
		e.keys = e.keys[:0]
		for name := range rec.Links {
			e.keys = append(e.keys, name)
		}
		slices.Sort(e.keys)
		b = append(b, `,"links":{`...)
		for i, name := range e.keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, name)
			b = append(b, ':')
			links := rec.Links[name]
			if links == nil {
				b = append(b, "null"...)
				continue
			}
			b = append(b, '[')
			for j, l := range links {
				if j > 0 {
					b = append(b, ',')
				}
				b = append(b, `{"from":`...)
				b = appendString(b, l.From)
				b = append(b, `,"to":`...)
				b = appendString(b, l.To)
				b = append(b, '}')
			}
			b = append(b, ']')
		}
		b = append(b, '}')
	}
	if len(rec.Plans) > 0 {
		b = append(b, `,"plans":[`...)
		for i := range rec.Plans {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = e.appendPlan(b, &rec.Plans[i]); err != nil {
				e.buf = b
				return nil, err
			}
		}
		b = append(b, ']')
	}
	b = append(b, '}')
	e.buf = b
	return b, nil
}

// appendPlan appends one class plan in classPlan's field order.
func (e *recordEncoder) appendPlan(b []byte, p *classPlan) ([]byte, error) {
	b = append(b, '{')
	if p.Storm != 0 {
		b = append(b, `"storm":`...)
		b = strconv.AppendInt(b, int64(p.Storm), 10)
		b = append(b, ',')
	}
	b = append(b, `"key":`...)
	b = appendString(b, p.Key)
	b = append(b, `,"outcome":`...)
	b = appendString(b, p.Outcome)
	b = append(b, `,"found":`...)
	b = strconv.AppendBool(b, p.Found)
	if len(p.Path) > 0 {
		b = append(b, `,"path":[`...)
		for i, id := range p.Path {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, string(id))
		}
		b = append(b, ']')
	}
	if len(p.Formats) > 0 {
		b = append(b, `,"formats":[`...)
		for i, f := range p.Formats {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"Kind":`...)
			b = strconv.AppendInt(b, int64(f.Kind), 10)
			b = append(b, `,"Encoding":`...)
			b = appendString(b, f.Encoding)
			b = append(b, `,"Profile":`...)
			b = appendString(b, f.Profile)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	var err error
	if len(p.Params) > 0 {
		e.params = e.params[:0]
		for name := range p.Params {
			e.params = append(e.params, name)
		}
		slices.Sort(e.params)
		b = append(b, `,"params":{`...)
		for i, name := range e.params {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, string(name))
			b = append(b, ':')
			if b, err = appendFloat(b, p.Params[name]); err != nil {
				return b, err
			}
		}
		b = append(b, '}')
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{`,"satisfaction":`, p.Satisfaction}, {`,"cost":`, p.Cost}, {`,"kbps":`, p.Kbps}} {
		b = append(b, f.name...)
		if b, err = appendFloat(b, f.v); err != nil {
			return b, err
		}
	}
	b = append(b, `,"degraded":`...)
	b = strconv.AppendBool(b, p.Degraded)
	if len(p.Dropped) > 0 {
		b = append(b, `,"dropped":[`...)
		for i, id := range p.Dropped {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, id)
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// appendFloat formats f as encoding/json does: the shortest decimal
// that round-trips, in exponent form below 1e-6 and from 1e21 up, with
// a two-digit negative exponent trimmed to one ("1e-07" → "1e-7").
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("storm: record holds unsupported float %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendString quotes s as encoding/json does with HTML escaping on:
// control characters, the quote and the backslash escaped; <, > and &
// as \u003c, \u003e and \u0026; invalid UTF-8 as \ufffd; and U+2028
// and U+2029 as \u2028 and \u2029.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
