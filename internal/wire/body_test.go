package wire

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"unicode/utf8"
)

// literalCases are JSON string literals of one test, each marked with
// whether it is exactly what appendString writes for its value.
var literalCases = []struct {
	lit   string
	exact bool
}{
	{`"plain mp"`, true},
	{`""`, true},
	{`"line\nbreak \"q\" \\ \b\f\r\t"`, true},
	{`"\u003c\u003e\u0026 \u2028\u2029 \u0000\u001f"`, true},
	{`"héllo ∀ 世界 /\\"`, true},
	{`"a\/b"`, false},
	{`"\u0008"`, false}, // appendString writes \b
	{`"\u000a"`, false}, // appendString writes \n
	{`"\u0022"`, false}, // appendString writes \"
	{`"\u003C"`, false}, // upper-case hex
	{`"\u001F"`, false},
	{`"\u0041"`, false}, // A needs no escape
	{`"\u00e9"`, false},
	{`"\ufffd"`, false},
	{"\"raw <\"", false},
	{"\"raw >&\"", false},
	{"\"raw \u2028\"", false},
	{"\"raw \u2029\"", false},
}

// readBody reads body with ReadBatchRequest, failing unless it gives
// DecodeBatchRequest's value and error.
func readBody(t *testing.T, body []byte) (*BatchRequest, *Body) {
	t.Helper()
	var got, want BatchRequest
	b, gerr := ReadBatchRequest(bytes.NewReader(body), &got)
	werr := DecodeBatchRequest(bytes.NewReader(body), &want)
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		t.Fatalf("body %q: ReadBatchRequest error %v, DecodeBatchRequest error %v", body, gerr, werr)
	}
	if gerr != nil {
		return nil, nil
	}
	checkRequestDecode(t, body)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q: ReadBatchRequest %#v, DecodeBatchRequest %#v", body, got, want)
	}
	return &got, b
}

// checkLiterals fails unless every literal the body keeps is exactly
// appendString's bytes for its test, and every sub-batch the body
// builds is AppendBatchRequest's bytes for that sub-batch.
func checkLiterals(t *testing.T, req *BatchRequest, b *Body) {
	t.Helper()
	for i, s := range req.Tests {
		if lit := b.literal(i); lit != nil && !bytes.Equal(lit, appendString(nil, s)) {
			t.Fatalf("test %d %q: kept literal %s, appendString writes %s", i, s, lit, appendString(nil, s))
		}
	}
	n := len(req.Tests)
	all, odd, reversed := []int{}, []int{}, []int{}
	for i := 0; i < n; i++ {
		all = append(all, i)
		reversed = append(reversed, n-1-i)
		if i%2 == 1 {
			odd = append(odd, i)
		}
	}
	for _, rows := range [][]int{all, odd, reversed, {}} {
		sub := BatchRequest{Tests: []string{}, Model: req.Model, Budget: req.Budget, DeadlineMS: req.DeadlineMS}
		for _, i := range rows {
			sub.Tests = append(sub.Tests, req.Tests[i])
		}
		want := AppendBatchRequest(nil, &sub)
		if got := b.AppendSubBatch(nil, req, rows); !bytes.Equal(got, want) {
			t.Fatalf("rows %v: AppendSubBatch wrote\n %s\nAppendBatchRequest writes\n %s", rows, got, want)
		}
	}
}

// TestBatchLiteralExactness pins which literals a read body keeps: a
// literal is forwarded exactly when it is appendString's bytes for its
// value — never \/, a needless or upper-case \u escape, or a raw <, >,
// &, U+2028 or U+2029 — and a sub-batch built from the body is
// AppendBatchRequest's bytes however its literals arrived.
func TestBatchLiteralExactness(t *testing.T) {
	for _, c := range literalCases {
		body := []byte(`{"tests":["first",` + c.lit + `,"last"],"model":{"name":"power"},"budget":{"timeout_ms":5},"deadline_ms":9,"ordered":true}`)
		req, b := readBody(t, body)
		if b == nil {
			t.Fatalf("literal %s: the body was not read in one pass", c.lit)
		}
		if got := b.literal(1) != nil; got != c.exact {
			t.Errorf("literal %s: kept %v, want %v", c.lit, got, c.exact)
		}
		if b.literal(0) == nil || b.literal(2) == nil {
			t.Errorf("literal %s: its plain neighbours were not kept", c.lit)
		}
		checkLiterals(t, req, b)
		b.Release()
		b.Release()
		if b.literal(0) != nil {
			t.Errorf("a released body still hands out literals")
		}
	}
	// A body the one-pass decoder does not read keeps nothing; its
	// sub-batches are escaped from the values.
	req, b := readBody(t, []byte(`{"model":{"name":"power"},"tests":["a\/b","c"],"budget":{}}`))
	if b != nil {
		t.Fatal("a body out of the encoder's shape was kept")
	}
	checkLiterals(t, req, b)
}

// FuzzBatchLiterals: for any body, the literals ReadBatchRequest keeps
// are appendString's bytes for their tests and the sub-batches it builds
// are AppendBatchRequest's; for a body AppendBatchRequest wrote from
// valid UTF-8, every literal is kept (an invalid byte is written as
// \ufffd, which is not appendString's bytes for the U+FFFD it decodes to).
func FuzzBatchLiterals(f *testing.F) {
	for _, body := range requestBodies {
		f.Add([]byte(body), "x")
	}
	for i, c := range literalCases {
		f.Add([]byte(`{"tests":[`+c.lit+`],"model":{"name":"tso"},"budget":{}}`), codecStrings[i%len(codecStrings)])
	}
	f.Fuzz(func(t *testing.T, body []byte, s string) {
		if req, b := readBody(t, body); req != nil {
			checkLiterals(t, req, b)
			b.Release()
		}
		enc := AppendBatchRequest(nil, &BatchRequest{Tests: []string{s, "<" + s, s + " "}, Model: ModelSpec{Name: s}})
		if !json.Valid(enc) {
			t.Fatalf("AppendBatchRequest wrote invalid JSON %q", enc)
		}
		req, b := readBody(t, enc)
		if b == nil {
			t.Fatalf("the encoder's own body %q was not read in one pass", enc)
		}
		for i := range req.Tests {
			if b.literal(i) == nil && utf8.ValidString(s) {
				t.Fatalf("test %d %q of the encoder's own body was not kept", i, req.Tests[i])
			}
		}
		checkLiterals(t, req, b)
		b.Release()
	})
}
