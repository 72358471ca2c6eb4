package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"herdcats/internal/campaign"
)

// The result/v1 codec. Warm verdict rows are almost all a batch stream
// carries, and each crosses up to four codec steps (node encode, gateway
// decode and re-encode, client decode), so result/v1 frames skip
// reflection on both sides. The encoder writes exactly the bytes
// json.Marshal writes; the decoder reads exactly the shape the encoder
// writes and hands any other line to encoding/json, so what it accepts,
// and what it returns, is what encoding/json would. See DESIGN.md §19.

// appendResultFrame appends f's JSON encoding to b: json.Marshal's bytes
// (field order, omitempty, sorted states keys, HTML-safe escaping).
// keys is scratch for sorting the states keys; it is returned grown.
func appendResultFrame(b []byte, f *ResultFrame, keys []string) ([]byte, []string, error) {
	r := &f.Result
	b = append(b, `{"type":`...)
	b = appendString(b, f.Type)
	b = append(b, `,"index":`...)
	b = strconv.AppendInt(b, int64(f.Index), 10)
	if f.Key != "" {
		b = append(b, `,"key":`...)
		b = appendString(b, f.Key)
	}
	if f.Cached {
		b = append(b, `,"cached":true`...)
	}
	b = append(b, `,"result":{"name":`...)
	b = appendString(b, r.Name)
	if r.Model != "" {
		b = append(b, `,"model":`...)
		b = appendString(b, r.Model)
	}
	b = append(b, `,"status":`...)
	b = appendString(b, string(r.Status))
	b = append(b, `,"candidates":`...)
	b = strconv.AppendInt(b, int64(r.Candidates), 10)
	b = append(b, `,"valid":`...)
	b = strconv.AppendInt(b, int64(r.Valid), 10)
	if len(r.States) > 0 {
		keys = keys[:0]
		for k := range r.States {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		b = append(b, `,"states":`...)
		for i, k := range keys {
			if i == 0 {
				b = append(b, '{')
			} else {
				b = append(b, ',')
			}
			b = appendString(b, k)
			b = append(b, ':')
			b = strconv.AppendInt(b, int64(r.States[k]), 10)
		}
		b = append(b, '}')
	}
	if r.Reason != "" {
		b = append(b, `,"reason":`...)
		b = appendString(b, r.Reason)
	}
	if r.Stack != "" {
		b = append(b, `,"stack":`...)
		b = appendString(b, r.Stack)
	}
	b = append(b, `,"attempts":`...)
	b = strconv.AppendInt(b, int64(r.Attempts), 10)
	b = append(b, `,"elapsed_ms":`...)
	b = strconv.AppendInt(b, r.ElapsedMS, 10)
	if r.Trace != nil {
		t, err := json.Marshal(r.Trace)
		if err != nil {
			return b, keys, err
		}
		b = append(b, `,"trace":`...)
		b = append(b, t...)
	}
	return append(b, "}}"...), keys, nil
}

// appendString appends s as a JSON string, escaped exactly as
// json.Marshal escapes it: `"`, `\` and control characters, the HTML
// characters <, > and &, U+2028 and U+2029, with each invalid UTF-8 byte
// replaced by \ufffd.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if htmlSafe[c] {
			i++
			continue
		}
		if c < utf8.RuneSelf {
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
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
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// htmlSafe marks the bytes json.Marshal copies into a string verbatim:
// ASCII from space up, except `"`, `\` and the HTML characters <, > and &.
var htmlSafe = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// typeTag reads a frame's type tag when the line opens with it, as every
// encoder-written frame does, and names one of the four v1 types; it
// returns "" otherwise.
func typeTag(line []byte) string {
	rest, ok := bytes.CutPrefix(line, []byte(`{"type":"`))
	if !ok {
		return ""
	}
	end := bytes.IndexByte(rest, '"')
	if end < 0 {
		return ""
	}
	switch string(rest[:end]) {
	case FrameResult:
		return FrameResult
	case FrameError:
		return FrameError
	case FrameSummary:
		return FrameSummary
	case FrameHeartbeat:
		return FrameHeartbeat
	}
	return ""
}

// decodeResult decodes a result/v1 line in one pass, if the line has the
// shape appendResultFrame writes: its keys, in its order, each once;
// strings free of escapes, control characters and invalid UTF-8; integer
// numbers; no trace. It reports false on any other line, which the caller
// hands to encoding/json. Every string field is a substring of one copy
// of the line.
func decodeResult(line []byte) (*ResultFrame, bool) {
	p := parser[string]{s: string(line), ok: true}
	f := &ResultFrame{Type: FrameResult}
	r := &f.Result
	p.lit(`{"type":"result/v1","index":`)
	f.Index = p.int()
	if p.skip(`,"key":`) {
		f.Key = p.str()
	}
	if p.skip(`,"cached":true`) {
		f.Cached = true
	}
	p.lit(`,"result":{"name":`)
	r.Name = p.str()
	if p.skip(`,"model":`) {
		r.Model = p.str()
	}
	p.lit(`,"status":`)
	r.Status = status(p.str())
	p.lit(`,"candidates":`)
	r.Candidates = p.int()
	p.lit(`,"valid":`)
	r.Valid = p.int()
	if p.skip(`,"states":{`) {
		r.States = map[string]int{}
		for p.ok {
			k := p.str()
			p.lit(":")
			r.States[k] = p.int()
			if !p.skip(",") {
				break
			}
		}
		p.lit("}")
	}
	if p.skip(`,"reason":`) {
		r.Reason = p.str()
	}
	if p.skip(`,"stack":`) {
		r.Stack = p.str()
	}
	p.lit(`,"attempts":`)
	r.Attempts = p.int()
	p.lit(`,"elapsed_ms":`)
	r.ElapsedMS = p.int64()
	p.lit("}}")
	return f, p.ok && p.pos == len(p.s)
}

// status returns the campaign constant spelled s, so a caller keeping
// only a row's status does not keep the whole line alive.
func status(s string) campaign.Status {
	for _, st := range [...]campaign.Status{campaign.StatusOK, campaign.StatusForbidden, campaign.StatusIncomplete,
		campaign.StatusPanicked, campaign.StatusError, campaign.StatusSkipped} {
		if s == string(st) {
			return st
		}
	}
	return campaign.Status(s)
}

// parser is the one-pass decoders' cursor, over a copy of a result/v1
// line or over a request body's bytes. The first mismatch clears ok;
// every later step is then a no-op.
type parser[T string | []byte] struct {
	s   T
	pos int
	ok  bool
}

// skip consumes lit if the input continues with it.
func (p *parser[T]) skip(lit string) bool {
	if !p.ok || len(p.s)-p.pos < len(lit) || string(p.s[p.pos:p.pos+len(lit)]) != lit {
		return false
	}
	p.pos += len(lit)
	return true
}

// lit consumes lit, which the input must continue with.
func (p *parser[T]) lit(lit string) {
	if !p.skip(lit) {
		p.ok = false
	}
}

// str consumes a JSON string that encoding/json would decode to its own
// bytes: no escape, no control character, valid UTF-8.
func (p *parser[T]) str() T {
	var none T
	if !p.skip(`"`) {
		p.ok = false
		return none
	}
	start, ascii := p.pos, true
	for ; p.pos < len(p.s); p.pos++ {
		switch c := p.s[p.pos]; {
		case c == '"':
			s := p.s[start:p.pos]
			p.pos++
			if !ascii && !utf8.ValidString(string(s)) {
				p.ok = false
			}
			return s
		case c < 0x20 || c == '\\':
			p.ok = false
			return none
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	p.ok = false
	return none
}

// int64 consumes a JSON integer that fits an int64: an optional minus,
// then 0 or a digit string without a leading zero.
func (p *parser[T]) int64() int64 {
	if !p.ok {
		return 0
	}
	neg := p.skip("-")
	start := p.pos
	var v uint64 // 19 digits cannot overflow it; a 20th fails below
	for ; p.pos < len(p.s) && p.pos-start < 20; p.pos++ {
		c := p.s[p.pos]
		if c < '0' || c > '9' {
			break
		}
		v = v*10 + uint64(c-'0')
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	n := p.pos - start
	if n == 0 || n == 20 || (n > 1 && p.s[start] == '0') || v > limit {
		p.ok = false
		return 0
	}
	if neg {
		return -int64(v)
	}
	return int64(v)
}

// int consumes a JSON integer that fits an int.
func (p *parser[T]) int() int {
	v := p.int64()
	if int64(int(v)) != v {
		p.ok = false
	}
	return int(v)
}
