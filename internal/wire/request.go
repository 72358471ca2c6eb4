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
	n := 0
	for _, t := range req.Tests {
		n += len(t) + len(t)/8 + 3 // quotes, comma, and room for escapes
	}
	b = slices.Grow(b, n+128+len(req.Model.Name)+len(req.Model.Cat))
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
	return appendBatchTail(b, req, req.Ordered)
}

// appendBatchTail appends a BatchRequest's fields after its tests, with
// ordered for its Ordered field, and closes the object.
func appendBatchTail(b []byte, req *BatchRequest, ordered bool) []byte {
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
	if ordered {
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
	body, err := readBatchRequest(r, req, false)
	body.Release()
	return err
}

// ReadBatchRequest is DecodeBatchRequest for a relay: it decodes the
// same value with the same error, and also keeps the body's bytes, so
// that AppendSubBatch can copy each test's JSON literal as it arrived
// instead of escaping its value again. The caller must Release the
// returned body once it has built its last sub-batch. The body is nil
// on an error, and when the request was not read in one pass;
// AppendSubBatch then escapes every test.
func ReadBatchRequest(r io.Reader, req *BatchRequest) (*Body, error) {
	return readBatchRequest(r, req, true)
}

func readBatchRequest(r io.Reader, req *BatchRequest, keep bool) (*Body, error) {
	b := &Body{buf: bodyBufs.Get().(*bytes.Buffer)}
	var lits *[]span
	if keep {
		lits = &b.lits
	}
	_, err := b.buf.ReadFrom(r)
	switch {
	case err != nil:
		err = DecodeBody(io.MultiReader(bytes.NewReader(b.buf.Bytes()), errReader{err}), req)
	case !decodeBatch(b.buf.Bytes(), req, lits):
		err = DecodeBody(bytes.NewReader(b.buf.Bytes()), req)
	case keep:
		return b, nil
	}
	b.Release()
	return nil, err
}

// Body is a /v1/batch body held after ReadBatchRequest read it in one
// pass: its bytes, and where each test's JSON literal lies in them.
type Body struct {
	buf  *bytes.Buffer
	lits []span // per test; an empty span marks a literal that is not exact
}

// span is a test's literal, quotes included, at buf[start:end].
type span struct{ start, end int }

// Release returns the body's bytes to their pool. It is a no-op on a
// nil or already released body.
func (b *Body) Release() {
	if b == nil || b.buf == nil {
		return
	}
	if b.buf.Cap() <= maxPooledBody {
		b.buf.Reset()
		bodyBufs.Put(b.buf)
	}
	b.buf, b.lits = nil, nil
}

// AppendSubBatch appends AppendBatchRequest's bytes for the sub-batch of
// req holding the tests at rows, in that order, with req's model, budget
// and deadline and Ordered unset. req is the request b was read into.
// A test whose literal is exact — byte for byte what appendString writes
// for its value — is copied from the body; any other is escaped again.
func (b *Body) AppendSubBatch(dst []byte, req *BatchRequest, rows []int) []byte {
	n := 128 + len(req.Model.Name) + len(req.Model.Cat)
	for _, i := range rows {
		t := req.Tests[i]
		n += len(t) + len(t)/8 + 3
	}
	dst = slices.Grow(dst, n)
	dst = append(dst, `{"tests":[`...)
	for k, i := range rows {
		if k > 0 {
			dst = append(dst, ',')
		}
		if lit := b.literal(i); lit != nil {
			dst = append(dst, lit...)
		} else {
			dst = appendString(dst, req.Tests[i])
		}
	}
	dst = append(dst, ']')
	return appendBatchTail(dst, req, false)
}

// literal returns test i's exact literal, or nil.
func (b *Body) literal(i int) []byte {
	if b == nil || b.buf == nil || i >= len(b.lits) || b.lits[i].end == 0 {
		return nil
	}
	return b.buf.Bytes()[b.lits[i].start:b.lits[i].end]
}

// bodyBufs recycles the buffers request bodies are read into: every
// string decodeBatchRequest keeps is a copy, so a body's bytes are dead
// once it returns, or once its Body is released.
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
	return decodeBatch(body, req, nil)
}

// decodeBatch is decodeBatchRequest; when lits is non-nil it also
// receives each test's literal span, empty where the literal is not
// exact (see unquote).
func decodeBatch(body []byte, req *BatchRequest, lits *[]span) bool {
	p := parser[[]byte]{s: body, ok: true}
	var out BatchRequest
	var scratch []byte
	var spans []span
	p.space()
	p.lit(`{"tests":[`)
	if !p.skip("]") {
		for p.ok {
			start := p.pos
			p.exact = true
			out.Tests = append(out.Tests, p.text(&scratch))
			if lits != nil {
				sp := span{}
				if p.exact {
					sp = span{start, p.pos}
				}
				spans = append(spans, sp)
			}
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
	if lits != nil {
		*lits = spans
	}
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
// only outside the surrogate range). It clears exact, as str does,
// where the literal is not what appendString writes for its value: a raw
// <, >, &, U+2028 or U+2029; an escape appendString does not write for
// its character (\/, \u0041, an upper-case \u003C, \u000a for \n).
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
			switch {
			case c < utf8.RuneSelf: // <, > or &
				p.exact = false
			case c == 0xE2 && i+2 < len(s) && s[i+1] == 0x80 && s[i+2]&^1 == 0xA8: // U+2028, U+2029
				ascii, p.exact = false, false
			default:
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
		case '"', '\\':
			dst = append(dst, esc)
		case '/':
			dst = append(dst, esc)
			p.exact = false
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
			if !escapedAsU(r) {
				p.exact = false
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

// escapedAsU reports whether appendString writes r as a \u escape.
func escapedAsU(r rune) bool {
	switch r {
	case '\b', '\f', '\n', '\r', '\t':
		return false
	case '<', '>', '&', '\u2028', '\u2029':
		return true
	}
	return r < 0x20
}

// hex4 consumes the four hex digits of a \u escape, clearing exact on
// an upper-case digit.
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
			p.exact = false // appendString writes lower-case hex
		default:
			p.ok = false
			return 0
		}
		r = r<<4 | rune(c)
	}
	p.pos += 4
	return r
}
