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
// and what it returns, is what encoding/json would. A relay skips both
// steps for a line that is byte for byte what the encoder writes for its
// frame: it rewrites the index and copies the rest (RelayResult). A
// node skips re-escaping a resident verdict: it appends the bytes it
// stored with the verdict (StoredResult). See DESIGN.md §19.

// appendResultFrame appends f's JSON encoding to b: json.Marshal's bytes
// (field order, omitempty, sorted states keys, HTML-safe escaping).
// keys is scratch for sorting the states keys; it is returned grown.
func appendResultFrame(b []byte, f *ResultFrame, keys []string) ([]byte, []string, error) {
	r := &f.Result
	b = appendResultHead(b, f.Type, f.Index, f.Key, f.Cached)
	b, keys = appendResultBody(b, r, keys)
	b = appendResultTail(b, r.Attempts, r.ElapsedMS)
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

// appendResultHead appends a result frame's fields up to its row:
// the type, index, key and cached flag, then the row's opening.
func appendResultHead(b []byte, typ string, index int, key string, cached bool) []byte {
	b = append(b, `{"type":`...)
	b = appendString(b, typ)
	b = append(b, `,"index":`...)
	b = strconv.AppendInt(b, int64(index), 10)
	if key != "" {
		b = append(b, `,"key":`...)
		b = appendString(b, key)
	}
	if cached {
		b = append(b, `,"cached":true`...)
	}
	return append(b, `,"result":{`...)
}

// appendResultBody appends the verdict part of a row: its fields from
// name through stack, everything but attempts, elapsed_ms and trace.
func appendResultBody(b []byte, r *campaign.JobResult, keys []string) ([]byte, []string) {
	b = append(b, `"name":`...)
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
	return b, keys
}

// appendResultTail appends a row's per-attempt fields.
func appendResultTail(b []byte, attempts int, elapsedMS int64) []byte {
	b = append(b, `,"attempts":`...)
	b = strconv.AppendInt(b, int64(attempts), 10)
	b = append(b, `,"elapsed_ms":`...)
	return strconv.AppendInt(b, elapsedMS, 10)
}

// ResultBody renders the verdict part of res's result/v1 frame: the
// bytes appendResultFrame writes for res from its name through its
// stack. A node stores them with a resident verdict and answers each
// hit with a StoredResult, which writes only the rest.
func ResultBody(res campaign.JobResult) []byte {
	b, _ := appendResultBody(nil, &res, nil)
	return b
}

// StoredResult is a result/v1 frame whose verdict part was rendered
// once, when the verdict was stored: it encodes to the bytes of
// NewResult(Index, Key, Cached, res) for the row res with no trace whose
// ResultBody is Body and whose attempts and elapsed time are these.
type StoredResult struct {
	Index     int
	Key       string
	Cached    bool
	Body      []byte
	Attempts  int
	ElapsedMS int64
}

func (f *StoredResult) appendTo(b []byte) []byte {
	b = appendResultHead(b, FrameResult, f.Index, f.Key, f.Cached)
	b = append(b, f.Body...)
	b = appendResultTail(b, f.Attempts, f.ElapsedMS)
	return append(b, "}}"...)
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
// shape appendResultFrame writes (walkResult). It reports false on any
// other line, which the caller hands to encoding/json. Every string
// field is a substring of one copy of the line.
func decodeResult(line []byte) (*ResultFrame, bool) {
	p := parser[string]{s: string(line), ok: true}
	f := &ResultFrame{Type: FrameResult}
	walkResult(&p, f)
	return f, p.ok
}

// RelayResult is a result/v1 line forwarded as bytes: the line is byte
// for byte what the encoder writes for the frame it decodes to, so
// writing it with Index spliced in writes that frame with this Index.
// Index, Cached and Status are the frame's, for the relay's bookkeeping;
// set Index to renumber the frame.
type RelayResult struct {
	Index  int
	Cached bool
	Status campaign.Status

	line    []byte // the line, owned
	at, end int    // where the line writes its index
}

// relayResult reads a result/v1 line for a relay: it reports false
// unless the line is exactly what appendResultFrame writes for the frame
// decodeFrame reads from it. The line is not retained.
func relayResult(line []byte) (RelayResult, bool) {
	p := parser[[]byte]{s: line, ok: true, exact: true}
	h := walkResult(&p, nil)
	return h, p.ok && p.exact
}

func (f *RelayResult) appendTo(b []byte) []byte {
	b = append(b, f.line[:f.at]...)
	b = strconv.AppendInt(b, int64(f.Index), 10)
	return append(b, f.line[f.end:]...)
}

// walkResult walks a result/v1 line in the shape appendResultFrame
// writes: its keys, in its order, each once; strings free of escapes,
// control characters and invalid UTF-8; integer numbers; no trace. It
// fills f when f is non-nil, and returns what a relay reads. On any
// other line it clears p.ok. It clears p.exact where the line differs
// from what the encoder writes for the frame it decodes to: a string
// holding a character the encoder escapes, a -0, an omitempty field
// present but empty, states keys out of order or repeated.
func walkResult[T string | []byte](p *parser[T], f *ResultFrame) RelayResult {
	var h RelayResult
	p.lit(`{"type":"result/v1","index":`)
	h.at = p.pos
	h.Index = p.int()
	h.end = p.pos
	var r *campaign.JobResult
	if f != nil {
		r = &f.Result
		f.Index = h.Index
	}
	if p.skip(`,"key":`) {
		key := p.nonEmpty()
		if f != nil {
			f.Key = string(key)
		}
	}
	if p.skip(`,"cached":true`) {
		h.Cached = true
		if f != nil {
			f.Cached = true
		}
	}
	p.lit(`,"result":{"name":`)
	name := p.str()
	var model T
	if p.skip(`,"model":`) {
		model = p.nonEmpty()
	}
	p.lit(`,"status":`)
	h.Status = status(p.str())
	p.lit(`,"candidates":`)
	candidates := p.int()
	p.lit(`,"valid":`)
	valid := p.int()
	if r != nil {
		r.Name, r.Model, r.Status, r.Candidates, r.Valid = string(name), string(model), h.Status, candidates, valid
	}
	if p.skip(`,"states":{`) {
		if r != nil {
			r.States = map[string]int{}
		}
		var last T
		for i := 0; p.ok; i++ {
			k := p.str()
			if i > 0 && string(k) <= string(last) {
				p.exact = false
			}
			last = k
			p.lit(":")
			n := p.int()
			if r != nil {
				r.States[string(k)] = n
			}
			if !p.skip(",") {
				break
			}
		}
		p.lit("}")
	}
	if p.skip(`,"reason":`) {
		reason := p.nonEmpty()
		if r != nil {
			r.Reason = string(reason)
		}
	}
	if p.skip(`,"stack":`) {
		stack := p.nonEmpty()
		if r != nil {
			r.Stack = string(stack)
		}
	}
	p.lit(`,"attempts":`)
	attempts := p.int()
	p.lit(`,"elapsed_ms":`)
	elapsed := p.int64()
	if r != nil {
		r.Attempts, r.ElapsedMS = attempts, elapsed
	}
	p.lit("}}")
	if p.pos != len(p.s) {
		p.ok = false
	}
	return h
}

// status returns the campaign constant spelled s, so a caller keeping
// only a row's status does not keep the whole line alive.
func status[T string | []byte](s T) campaign.Status {
	for _, st := range [...]campaign.Status{campaign.StatusOK, campaign.StatusForbidden, campaign.StatusIncomplete,
		campaign.StatusPanicked, campaign.StatusError, campaign.StatusSkipped} {
		if string(s) == string(st) {
			return st
		}
	}
	return campaign.Status(s)
}

// parser is the one-pass decoders' cursor, over a copy of a result/v1
// line or over a request body's bytes. The first mismatch clears ok;
// every later step is then a no-op. exact, when the caller sets it, is
// cleared where the input stops being what the result/v1 encoder writes
// (see walkResult).
type parser[T string | []byte] struct {
	s     T
	pos   int
	ok    bool
	exact bool
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
// bytes: no escape, no control character, valid UTF-8. It clears exact
// on a character the encoder escapes there: <, >, &, U+2028, U+2029.
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
		case c == '<' || c == '>' || c == '&':
			p.exact = false
		case c >= utf8.RuneSelf:
			ascii = false
			// U+2028 and U+2029 are E2 80 A8 and E2 80 A9.
			if c == 0xE2 && p.pos+2 < len(p.s) && p.s[p.pos+1] == 0x80 && p.s[p.pos+2]&^1 == 0xA8 {
				p.exact = false
			}
		}
	}
	p.ok = false
	return none
}

// nonEmpty consumes a string the encoder writes only when non-empty.
func (p *parser[T]) nonEmpty() T {
	s := p.str()
	if len(s) == 0 {
		p.exact = false
	}
	return s
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
		if v == 0 {
			p.exact = false // the encoder writes 0
		}
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
