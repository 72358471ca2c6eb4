package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// checkRequestDecode fails unless DecodeBatchRequest and DecodeBody give
// body the same value, or both fail.
func checkRequestDecode(t *testing.T, body []byte) {
	t.Helper()
	var got, want BatchRequest
	gerr := DecodeBatchRequest(bytes.NewReader(body), &got)
	werr := DecodeBody(bytes.NewReader(body), &want)
	if (gerr != nil) != (werr != nil) {
		t.Fatalf("body %q: DecodeBatchRequest error %v, DecodeBody error %v", body, gerr, werr)
	}
	if gerr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q:\nDecodeBatchRequest %#v\n        DecodeBody %#v", body, got, want)
	}
}

// checkRequestEncode fails unless AppendBatchRequest writes json.Marshal's
// bytes for req, and the one-pass decoder reads them back (without
// falling back) to what encoding/json reads from them.
func checkRequestEncode(t *testing.T, req *BatchRequest) {
	t.Helper()
	want, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := AppendBatchRequest(nil, req); !bytes.Equal(got, want) {
		t.Fatalf("AppendBatchRequest wrote\n %s\njson.Marshal wrote\n %s", got, want)
	}
	checkRequestDecode(t, want)
	var fast BatchRequest
	if req.Tests != nil && !decodeBatchRequest(want, &fast) {
		t.Fatalf("the one-pass decoder fell back on json.Marshal's bytes %s", want)
	}
}

// fuzzRequest builds a batch request from fuzzed parts, covering the
// optional fields by their zero-ness.
func fuzzRequest(s, name, cat string, n int64, ordered bool) *BatchRequest {
	req := &BatchRequest{
		Tests:      []string{s, name + s, cat},
		Model:      ModelSpec{Name: name, Cat: cat},
		Budget:     BudgetSpec{MaxCandidates: int(n), MaxTracesPerThread: int(n >> 3), TimeoutMS: -n},
		DeadlineMS: n >> 1,
		Ordered:    ordered,
	}
	switch n % 4 {
	case 1:
		req.Tests = req.Tests[:1]
	case 2:
		req.Tests = []string{}
	case 3:
		req.Tests = nil
	}
	return req
}

// requestBodies are bodies around the encoder's shape that the decoder
// must read exactly as DecodeBody reads them, or reject as it rejects
// them.
var requestBodies = []string{
	`{"tests":["x"],"model":{"name":"power"},"budget":{}}`,
	`{"tests":["x"],"model":{"name":"power"},"budget":{}}` + " \t\r\n",
	" \n" + `{"tests":["x"],"model":{"name":"power"},"budget":{}}`,
	`{"tests":["x"],"model":{"name":"power"}}}`,
	`{"tests":["x"],"model":{"name":"power"}}]`,
	`{"tests":["x"],"model":{"name":"power"},"budget":{}}}`,
	`{"tests":["x"],"model":{"name":"power"},"budget":{}}]`,
	`{"tests":["x"],"model":{"name":"power"},"budget":{}} {}`,
	`{"tests":["x"],"model":{"name":"power"},"budget":{}}x`,
	`{"tests":[],"model":{},"budget":{}}`,
	`{"tests":null,"model":{},"budget":{}}`,
	`{"tests":["a","b"],"model":{"name":"tso","cat":"c"},"budget":{"max_candidates":1,"max_traces_per_thread":2,"timeout_ms":3},"deadline_ms":4,"ordered":true}`,
	`{"tests":["a"],"model":{"cat":"c"},"budget":{"timeout_ms":3}}`,
	`{"tests":["a"],"model":{"cat":"c","name":"tso"},"budget":{}}`,
	`{"tests":["a"],"model":{"name":"tso"},"budget":{},"ordered":false}`,
	`{"tests":["a"],"model":{"name":"tso"},"budget":{},"deadline_ms":0}`,
	`{"tests":["a"],"model":{"name":"tso"},"budget":{"max_candidates":-0}}`,
	`{"tests":["a"],"model":{"name":"tso"},"budget":{"max_candidates":01}}`,
	`{"tests":["a"],"model":{"name":"tso"},"budget":{"max_candidates":1.0}}`,
	`{"tests":["a"],"model":{"name":"tso"},"budget":{"max_candidates":1e2}}`,
	`{"tests":["a"],"model":{"name":"tso"},"budget":{"max_candidates":99999999999999999999}}`,
	`{"tests":["a"],"model":{"name":"tso"},"budget":{"timeout_ms":999999999999999999}}`,
	`{"tests":["a"],"model":{"name":"tso"},"budget":{"max_candidates":1000000000000000000}}`,
	`{"tests":["a"],"model":{"name":"tso"},"budget":{"timeout_ms":9223372036854775807}}`,
	`{"tests":["a"],"model":{"name":"tso"},"budget":{"timeout_ms":-9223372036854775808}}`,
	`{"tests":["a"],"model":{"name":"tso"},"budget":{"timeout_ms":9223372036854775808}}`,
	`{"tests":["a"],"model":{"name":"tso"},"budget":{"timeout_ms":-9223372036854775809}}`,
	`{"tests":["a"],"model":{"name":"tso"},"budget":{"timeout_ms":18446744073709551616}}`,
	`{"tests":["a"],"tests":["b"],"model":{"name":"tso"},"budget":{}}`,
	`{"Tests":["a"],"model":{"name":"tso"},"budget":{}}`,
	`{"tests":["a"],"model":{"name":"tso"}}`,
	`{"tests":["a"] ,"model":{"name":"tso"},"budget":{}}`,
	`{"tests":["line\nbreak \"q\" \\ \/ \b\f\r\t \u003c\u003E\u0026 \u2028 \u00e9 \u0000"],"model":{"name":"tso"},"budget":{}}`,
	`{"tests":["\ud83d\ude00 pair"],"model":{"name":"tso"},"budget":{}}`,
	`{"tests":["\ud83d lone"],"model":{"name":"tso"},"budget":{}}`,
	`{"tests":["\ude00 lone"],"model":{"name":"tso"},"budget":{}}`,
	`{"tests":["\u12"],"model":{"name":"tso"},"budget":{}}`,
	`{"tests":["\u12G4"],"model":{"name":"tso"},"budget":{}}`,
	`{"tests":["\x"],"model":{"name":"tso"},"budget":{}}`,
	`{"tests":["tab` + "\t" + `"],"model":{"name":"tso"},"budget":{}}`,
	`{"tests":["bad ` + "\xff\xc3" + `"],"model":{"name":"tso"},"budget":{}}`,
	`{"tests":["héllo ∀ 世界 ` + "\u2028" + `"],"model":{"name":"tso"},"budget":{}}`,
	`{"tests":["a",],"model":{"name":"tso"},"budget":{}}`,
	`{"tests":["a"`,
	`{"tests":["a\`,
	`{"tests":[1],"model":{"name":"tso"},"budget":{}}`,
	`[]`,
	`null`,
	``,
}

// TestBatchRequestDecodeMatchesDecodeBody pins the decoder to DecodeBody
// across the encoder's shape, its near misses, and trailing data.
func TestBatchRequestDecodeMatchesDecodeBody(t *testing.T) {
	for _, body := range requestBodies {
		checkRequestDecode(t, []byte(body))
	}
}

// TestBatchRequestEncodeMatchesMarshal pins the encoder to json.Marshal's
// bytes across escapes, control characters, <>&, non-ASCII and invalid
// UTF-8, every optional field present and absent, and nil, empty and
// full test lists.
func TestBatchRequestEncodeMatchesMarshal(t *testing.T) {
	for _, s := range codecStrings {
		for _, n := range []int64{0, 1, 2, 3, -5, 6, 1 << 40} {
			checkRequestEncode(t, fuzzRequest(s, "power", "", n, n%2 == 0))
			checkRequestEncode(t, fuzzRequest(s, "", s, n, false))
			checkRequestEncode(t, fuzzRequest(s, s, s, n, true))
		}
	}
}

// TestDecodeBodyTrailingBrackets pins that a closing bracket or brace
// after the object is trailing data, not the end of the body.
func TestDecodeBodyTrailingBrackets(t *testing.T) {
	for _, body := range []string{
		`{"tests":["x"],"model":{"name":"power"}}}`,
		`{"tests":["x"],"model":{"name":"power"}}]`,
	} {
		var req BatchRequest
		if err := DecodeBody(strings.NewReader(body), &req); err == nil {
			t.Fatalf("DecodeBody accepted %s", body)
		}
		req = BatchRequest{}
		if err := DecodeBatchRequest(strings.NewReader(body), &req); err == nil {
			t.Fatalf("DecodeBatchRequest accepted %s", body)
		}
	}
}

// TestDecodeBatchRequestTooLarge pins that a body over the limit reads
// as the limit's error, so herdd and herd-gw both answer 413.
func TestDecodeBatchRequestTooLarge(t *testing.T) {
	body := AppendBatchRequest(nil, &BatchRequest{Tests: []string{strings.Repeat("x", 4096)}, Model: ModelSpec{Name: "tso"}})
	w := httptest.NewRecorder()
	var req BatchRequest
	err := DecodeBatchRequest(http.MaxBytesReader(w, io.NopCloser(bytes.NewReader(body)), 1024), &req)
	if got := DecodeStatus(err); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %v, status %d, want 413", err, got)
	}
	req = BatchRequest{}
	err = DecodeBatchRequest(http.MaxBytesReader(w, io.NopCloser(bytes.NewReader(body)), int64(len(body))), &req)
	if err != nil || len(req.Tests) != 1 {
		t.Fatalf("body at the limit: %v", err)
	}
}

// FuzzBatchRequestCodec is the request codec's differential against
// encoding/json: every body decodes as DecodeBody decodes it (or fails
// as it fails), and every request, whether decoded from the body or
// built from the fuzzed strings, encodes to json.Marshal's bytes.
func FuzzBatchRequestCodec(f *testing.F) {
	for i, body := range requestBodies {
		s := codecStrings[i%len(codecStrings)]
		f.Add([]byte(body), s, "power", s, int64(i-3), i%2 == 0)
	}
	for i, s := range codecStrings {
		f.Add([]byte(fmt.Sprintf(`{"tests":[%q],"model":{"name":"tso"},"budget":{}}`, s)), s, s, "", int64(i), false)
	}
	f.Fuzz(func(t *testing.T, body []byte, s, name, cat string, n int64, ordered bool) {
		checkRequestDecode(t, body)
		var req BatchRequest
		if DecodeBody(bytes.NewReader(body), &req) == nil {
			checkRequestEncode(t, &req)
		}
		checkRequestEncode(t, fuzzRequest(s, name, cat, n, ordered))
	})
}
