package wire

import (
	"bytes"
	"io"
	"slices"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// The BatchRequest codec. A /v1/batch body carries up to MaxBatchTests
// litmus sources and is encoded at each hop that sends it (the client,
// then herd-gw per sub-batch) and decoded at each hop that receives it
// (herd-gw, then herdd), so it skips reflection as result/v1 frames do.
// The encoder writes exactly the bytes json.Marshal writes; the decoder
// reads exactly that shape and hands any other body to DecodeBody, so
// what it accepts, and what it returns, is what encoding/json would. See
// DESIGN.md §19.

// AppendBatchRequest appends req's JSON encoding to b: json.Marshal's
// bytes (field order, omitempty, HTML-safe escaping).
func AppendBatchRequest(b []byte, req *BatchRequest) []byte {
	n := 128 + len(req.Model.Name) + len(req.Model.Cat)
	for _, t := range req.Tests {
		n += len(t) + len(t)/8 + 3 // quotes, comma, and room for escapes
	}
	b = slices.Grow(b, n)
	b = append(b, `{"tests":`...)
	if req.Tests == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, t := range req.Tests {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, t)
		}
		b = append(b, ']')
	}
	b = append(b, `,"model":{`...)
	if req.Model.Name != "" {
		b = append(b, `"name":`...)
		b = appendString(b, req.Model.Name)
	}
	if req.Model.Cat != "" {
		if req.Model.Name != "" {
			b = append(b, ',')
		}
		b = append(b, `"cat":`...)
		b = appendString(b, req.Model.Cat)
	}
	b = append(b, `},"budget":{`...)
	sep := false
	for _, f := range [...]struct {
		key string
		v   int64
	}{
		{`"max_candidates":`, int64(req.Budget.MaxCandidates)},
		{`"max_traces_per_thread":`, int64(req.Budget.MaxTracesPerThread)},
		{`"timeout_ms":`, req.Budget.TimeoutMS},
	} {
		if f.v == 0 {
			continue
		}
		if sep {
			b = append(b, ',')
		}
		b = append(b, f.key...)
		b = strconv.AppendInt(b, f.v, 10)
		sep = true
	}
	b = append(b, '}')
	if req.DeadlineMS != 0 {
		b = append(b, `,"deadline_ms":`...)
		b = strconv.AppendInt(b, req.DeadlineMS, 10)
	}
	if req.Ordered {
		b = append(b, `,"ordered":true`...)
	}
	return append(b, '}')
}

// DecodeBatchRequest decodes a /v1/batch body into req, which must be the
// zero value. A body of the shape AppendBatchRequest writes, followed by
// nothing but JSON whitespace, is read in one pass; any other body, and
// any read error, goes to DecodeBody over the same bytes, so the value
// and the error are always DecodeBody's.
func DecodeBatchRequest(r io.Reader, req *BatchRequest) error {
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			buf.Reset()
			bodyBufs.Put(buf)
		}
	}()
	_, err := buf.ReadFrom(r)
	if err != nil {
		return DecodeBody(io.MultiReader(bytes.NewReader(buf.Bytes()), errReader{err}), req)
	}
	if decodeBatchRequest(buf.Bytes(), req) {
		return nil
	}
	return DecodeBody(bytes.NewReader(buf.Bytes()), req)
}

// bodyBufs recycles the buffers request bodies are read into: every
// string decodeBatchRequest keeps is a copy, so a body's bytes are dead
// once it returns.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody caps the buffers bodyBufs keeps, so one oversized body
// does not stay resident.
const maxPooledBody = 1 << 20

// errReader replays a read error after the bytes read before it.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// decodeBatchRequest decodes body in one pass, if it has the shape
// AppendBatchRequest writes: its keys, in its order, each once; strings
// whose escapes are json.Marshal's (no surrogate \u escapes) and whose
// raw bytes are valid UTF-8; integer numbers. It reports false on any
// other body, leaving req untouched. Each string is its own allocation,
// so a cached source never pins the rest of its batch.
func decodeBatchRequest(body []byte, req *BatchRequest) bool {
	p := parser[[]byte]{s: body, ok: true}
	var out BatchRequest
	var scratch []byte
	p.space()
	p.lit(`{"tests":[`)
	if !p.skip("]") {
		for p.ok {
			out.Tests = append(out.Tests, p.text(&scratch))
			if !p.skip(",") {
				break
			}
		}
		p.lit("]")
	}
	if out.Tests == nil {
		out.Tests = []string{}
	}
	p.lit(`,"model":{`)
	if p.skip(`"name":`) {
		out.Model.Name = p.text(&scratch)
		if p.skip(`,"cat":`) {
			out.Model.Cat = p.text(&scratch)
		}
	} else if p.skip(`"cat":`) {
		out.Model.Cat = p.text(&scratch)
	}
	p.lit(`},"budget":{`)
	sep := ""
	if p.skip(`"max_candidates":`) {
		out.Budget.MaxCandidates, sep = p.int(), ","
	}
	if p.skip(sep + `"max_traces_per_thread":`) {
		out.Budget.MaxTracesPerThread, sep = p.int(), ","
	}
	if p.skip(sep + `"timeout_ms":`) {
		out.Budget.TimeoutMS = p.int64()
	}
	p.lit("}")
	if p.skip(`,"deadline_ms":`) {
		out.DeadlineMS = p.int64()
	}
	if p.skip(`,"ordered":true`) {
		out.Ordered = true
	}
	p.lit("}")
	p.space()
	if !p.ok || p.pos != len(p.s) {
		return false
	}
	*req = out
	return true
}

// text consumes a JSON string as unquote does, returning its value as a
// new string; *scratch holds the value's bytes meanwhile.
func (p *parser[T]) text(scratch *[]byte) string {
	*scratch = p.unquote((*scratch)[:0])
	return string(*scratch)
}

// space consumes JSON whitespace.
func (p *parser[T]) space() {
	for p.pos < len(p.s) {
		switch p.s[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// unquote consumes a JSON string and appends its value to dst, when
// encoding/json would decode it to exactly that: raw bytes valid UTF-8
// and free of control characters, escapes among json.Marshal's (\uXXXX
// only outside the surrogate range).
func (p *parser[T]) unquote(dst []byte) []byte {
	if !p.skip(`"`) {
		p.ok = false
		return dst
	}
	start, run, ascii := len(dst), p.pos, true
	s := p.s
	for p.pos < len(s) {
		i := p.pos
		for i < len(s) && htmlSafe[s[i]] {
			i++
		}
		if p.pos = i; i == len(s) {
			break
		}
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' {
			if c >= utf8.RuneSelf {
				ascii = false
			}
			p.pos++
			continue
		}
		dst = append(dst, p.s[run:p.pos]...)
		switch {
		case c == '"':
			p.pos++
			// Escapes decode to whole runes, so the value is valid UTF-8
			// exactly when every raw run is.
			if !ascii && !utf8.Valid(dst[start:]) {
				p.ok = false
			}
			return dst
		case c < 0x20 || p.pos+1 >= len(p.s):
			p.ok = false
			return dst
		}
		esc := p.s[p.pos+1]
		p.pos += 2
		switch esc {
		case '"', '\\', '/':
			dst = append(dst, esc)
		case 'b':
			dst = append(dst, '\b')
		case 'f':
			dst = append(dst, '\f')
		case 'n':
			dst = append(dst, '\n')
		case 'r':
			dst = append(dst, '\r')
		case 't':
			dst = append(dst, '\t')
		case 'u':
			r := p.hex4()
			if utf16.IsSurrogate(r) {
				p.ok = false
			}
			dst = utf8.AppendRune(dst, r)
		default:
			p.ok = false
		}
		if !p.ok {
			return dst
		}
		run = p.pos
	}
	p.ok = false
	return dst
}

// hex4 consumes the four hex digits of a \u escape.
func (p *parser[T]) hex4() rune {
	if len(p.s)-p.pos < 4 {
		p.ok = false
		return 0
	}
	var r rune
	for i := 0; i < 4; i++ {
		c := p.s[p.pos+i]
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			p.ok = false
			return 0
		}
		r = r<<4 | rune(c)
	}
	p.pos += 4
	return r
}
