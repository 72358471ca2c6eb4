package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"herdcats/internal/campaign"
	"herdcats/internal/obs"
)

// referenceDecode is the decoder the one-pass codec must agree with:
// plain encoding/json reads the type tag, then the frame it names.
func referenceDecode(line []byte) (any, error) {
	var head struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(line, &head); err != nil {
		return nil, err
	}
	var frame any
	switch head.Type {
	case FrameResult:
		frame = &ResultFrame{}
	case FrameError:
		frame = &ErrorFrame{}
	case FrameSummary:
		frame = &SummaryFrame{}
	case FrameHeartbeat:
		frame = &HeartbeatFrame{}
	case "":
		return nil, errors.New("missing type")
	default:
		return &UnknownFrame{Type: head.Type, Raw: append(json.RawMessage(nil), line...)}, nil
	}
	if err := json.Unmarshal(line, frame); err != nil {
		return nil, err
	}
	return frame, nil
}

// checkDecode fails unless decodeFrame and referenceDecode return the
// same frame for line, or both fail.
func checkDecode(t *testing.T, line []byte) {
	t.Helper()
	got, gerr := decodeFrame(line)
	want, werr := referenceDecode(line)
	if (gerr != nil) != (werr != nil) {
		t.Fatalf("line %q: decodeFrame error %v, encoding/json error %v", line, gerr, werr)
	}
	if gerr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("line %q:\n decodeFrame %#v\nencoding/json %#v", line, got, want)
	}
}

// checkEncode fails unless the encoder writes json.Marshal's bytes for
// f, and those bytes decode back to what encoding/json reads from them.
func checkEncode(t *testing.T, f *ResultFrame) {
	t.Helper()
	var buf bytes.Buffer
	if err := NewEncoder(&buf).Encode(f); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	if !bytes.Equal(got, append(want, '\n')) {
		t.Fatalf("encoder wrote\n %s\njson.Marshal wrote\n %s", got, want)
	}
	checkDecode(t, want)
}

// fuzzFrame builds a result frame whose every string is s, covering the
// optional fields by the parity of index.
func fuzzFrame(index int, s string, cached bool) *ResultFrame {
	res := campaign.JobResult{
		Name:       s,
		Model:      s,
		Status:     campaign.Status(s),
		Candidates: index,
		Valid:      -index,
		Reason:     s,
		Attempts:   1,
		ElapsedMS:  int64(index) << 20,
	}
	if index%2 != 0 {
		res.States = map[string]int{s: index, "b" + s: 2, "": 0}
		res.Stack = s + s
	}
	if index%3 == 0 {
		res.Trace = &obs.TraceJSON{Phases: []obs.PhaseSpan{{Phase: s, DurationUS: int64(index)}}}
	}
	return NewResult(index, s, cached, res)
}

// codecStrings are the string shapes the encoder must escape exactly as
// json.Marshal does.
var codecStrings = []string{
	"", "mp", "0:r1=1; 1:r1=0;", "sha256:aaaa",
	"héllo ∀ 世界", "bad \xff utf8 \xc3", "line\u2028sep\u2029", "<script>&amp;</script>",
	`say "hi" \ there`, "ctl \x00\x01\b\f\n\r\t\x1f\x7f", "/slash/",
}

// TestResultFrameEncodeMatchesMarshal pins the encoder to json.Marshal's
// bytes across non-ASCII and invalid UTF-8, <>&, quotes, control
// characters, negative indices, absent and present states and trace.
func TestResultFrameEncodeMatchesMarshal(t *testing.T) {
	for _, s := range codecStrings {
		for _, index := range []int{-7, -1, 0, 1, 2, 3, 6, 1 << 40} {
			checkEncode(t, fuzzFrame(index, s, index%2 == 0))
		}
	}
	empty := sampleResult(4)
	empty.Result.States = map[string]int{}
	checkEncode(t, empty)
	checkEncode(t, &ResultFrame{})
}

// TestDecodeFallbacks pins that lines outside the encoder's shape decode
// exactly as encoding/json decodes them (or fail as it fails).
func TestDecodeFallbacks(t *testing.T) {
	const tail = `"status":"OK","candidates":1,"valid":1,"attempts":1,"elapsed_ms":0}}`
	for _, line := range []string{
		`{"type":"result/v1","index":0,"result":{"name":"a\"b",` + tail,
		`{"type":"result/v1","index":0,"result":{"name":"\u00e9",` + tail,
		`{"type":"result/v1","index":0,"extra":5,"result":{"name":"a",` + tail,
		`{"type":"result/v1","Index":3,"result":{"name":"a",` + tail,
		`{"type":"result/v1","index":1.0,"result":{"name":"a",` + tail,
		`{"type":"result/v1","index":1e2,"result":{"name":"a",` + tail,
		`{"type":"result/v1","index":01,"result":{"name":"a",` + tail,
		`{"type":"result/v1","index":99999999999999999999,"result":{"name":"a",` + tail,
		`{"type":"result/v1","index":9223372036854775807,"result":{"name":"a",` + tail,
		`{"type":"result/v1","index":-9223372036854775808,"result":{"name":"a",` + tail,
		`{"type":"result/v1","index":9223372036854775808,"result":{"name":"a",` + tail,
		`{"type":"result/v1","index":-9223372036854775809,"result":{"name":"a",` + tail,
		`{"type":"result/v1","index":null,"key":null,"result":{"name":"a",` + tail,
		`{"type":"result/v1","index":0,"cached":false,"result":{"name":"a",` + tail,
		`{"type":"result/v1","index":0,"result":{"name":"a","states":{},` + tail,
		`{"type":"result/v1","index":0,"result":{"name":"a","status":"OK","candidates":1,"valid":1,"states":{"x":1,"x":2},"attempts":1,"elapsed_ms":0}}`,
		`{"type":"result/v1","index":0,"result":{"name":"a",` + tail[:len(tail)-2] + `,"trace":{"phases":null,"enum":{"candidates":3}}}}`,
		`{"type":"result/v1","index":0,"result":{"name":"bad` + "\xff" + `",` + tail,
		`{"type":"result/v1","index":0,"result":{"name":"tab` + "\t" + `",` + tail,
		`{"type":"result/v1","index":0,"result":{"name":"a",` + tail + ` `,
		`{"type":"result/v1","index":0,"result":{"name":"a",` + tail + `}`,
		`{"type":"result/v1","index":0,"TYPE":"heartbeat/v1","elapsed_ms":4}`,
		`{"type":"error/v1","index":0,"Type":"result/v1","result":{"name":"a",` + tail,
		`{"type":"heartbeat/v1","elapsed_ms":"soon"}`,
		`{"type":"heartbeat/v1","type":"result/v2"}`,
		`{"type":"summary/v1","tests":1,"counts":{"OK":1},"cache_hits":0,"elapsed_ms":1}`,
		`{"type":"result/v2","index":0}`,
		`{"type" : "result/v1","index":0,"result":{"name":"a",` + tail,
		`{"type":"","index":0}`,
		`{"index":0}`,
		`[1,2]`,
		`{"type":"result/v1",`,
	} {
		checkDecode(t, []byte(line))
	}
}

// goldenLines returns the lines of the recorded v1 stream.
func goldenLines(t testing.TB) [][]byte {
	data, err := os.ReadFile(filepath.Join("testdata", "golden_stream.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
}

// TestDecoderTruncatedResultLine cuts every golden result/v1 line at
// every byte offset and feeds it as a stream's last line: the cut must
// read as ErrTruncated, never as a (zero-valued or partial) frame.
func TestDecoderTruncatedResultLine(t *testing.T) {
	lead := []byte(`{"type":"heartbeat/v1","elapsed_ms":1}` + "\n")
	for _, line := range goldenLines(t) {
		if typeTag(line) != FrameResult {
			continue
		}
		for cut := 1; cut < len(line); cut++ {
			stream := append(append([]byte(nil), lead...), line[:cut]...)
			dec := NewDecoder(bytes.NewReader(stream))
			if _, err := dec.Next(); err != nil {
				t.Fatalf("cut %d: leading frame: %v", cut, err)
			}
			frame, err := dec.Next()
			if !errors.Is(err, ErrTruncated) || frame != nil {
				t.Fatalf("cut %d of %q: got (%#v, %v), want ErrTruncated", cut, line, frame, err)
			}
		}
	}
}

// FuzzResultFrameCodec is the codec's differential against encoding/json:
// every input line decodes to the same frame (or fails the same way),
// and every result frame, whether decoded from the line or built from
// the fuzzed string, encodes to json.Marshal's bytes.
func FuzzResultFrameCodec(f *testing.F) {
	for i, line := range goldenLines(f) {
		f.Add(line, i-1, codecStrings[i%len(codecStrings)], i%2 == 0)
	}
	for i, s := range codecStrings {
		f.Add([]byte(`{"type":"result/v1","index":0,"result":{"name":`+fmt.Sprintf("%q", s)+`}}`), i, s, true)
	}
	f.Fuzz(func(t *testing.T, line []byte, index int, s string, cached bool) {
		checkDecode(t, line)
		if want, err := referenceDecode(line); err == nil {
			if rf, ok := want.(*ResultFrame); ok {
				checkEncode(t, rf)
			}
		}
		checkEncode(t, fuzzFrame(index, s, cached))
	})
}

// checkRelay fails unless relaying line with index writes what the
// encoder writes for decodeFrame(line) renumbered to index, and reads
// the frame's index, cached flag and status; a line the relay refuses
// takes the decode-and-encode path, which is that reference itself. It
// reports whether the relay took the line.
func checkRelay(t *testing.T, line []byte, index int) bool {
	t.Helper()
	h, ok := relayResult(line)
	if !ok {
		return false
	}
	frame, err := decodeFrame(line)
	rf, isResult := frame.(*ResultFrame)
	if err != nil || !isResult {
		t.Fatalf("relay took %q, which decodes to (%#v, %v)", line, frame, err)
	}
	if h.Index != rf.Index || h.Cached != rf.Cached || h.Status != rf.Result.Status {
		t.Fatalf("relay read index %d cached %v status %q from %q, the frame has %d %v %q",
			h.Index, h.Cached, h.Status, line, rf.Index, rf.Cached, rf.Result.Status)
	}
	h.line = line
	h.Index = index
	rf.Index = index
	want, _, err := appendResultFrame(nil, rf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.appendTo(nil); !bytes.Equal(got, want) {
		t.Fatalf("relay of %q as index %d wrote\n %s\nthe encoder writes\n %s", line, index, got, want)
	}
	return true
}

// TestRelayResult: every golden result/v1 line relays, and a line the
// decoder accepts but the encoder would write differently does not.
func TestRelayResult(t *testing.T) {
	relayed := 0
	for i, line := range goldenLines(t) {
		if typeTag(line) == FrameResult {
			if !checkRelay(t, line, 1000+i) {
				t.Errorf("golden line %q was not relayed", line)
			}
			relayed++
		}
	}
	if relayed == 0 {
		t.Fatal("no golden result line")
	}
	const tail = `"status":"OK","candidates":1,"valid":1,"attempts":1,"elapsed_ms":0}}`
	for _, line := range relayRefused {
		if _, ok := decodeResult([]byte(line)); !ok {
			t.Errorf("%q: the one-pass decoder refuses it; the case tests nothing", line)
		}
		if checkRelay(t, []byte(line), 5) {
			t.Errorf("relayed %q, which the encoder writes differently", line)
		}
	}
	if !checkRelay(t, []byte(`{"type":"result/v1","index":0,"result":{"name":"a`+"\x7f é"+`",`+tail), 5) {
		t.Error("refused a line the encoder writes")
	}
}

// relayRefused are result/v1 lines the one-pass decoder accepts that the
// encoder writes otherwise: escaped characters, omitted empty fields,
// -0, unsorted or repeated states.
var relayRefused = func() []string {
	const tail = `"status":"OK","candidates":1,"valid":1,"attempts":1,"elapsed_ms":0}}`
	return []string{
		`{"type":"result/v1","index":0,"result":{"name":"a<b",` + tail,
		`{"type":"result/v1","index":0,"result":{"name":"a>b",` + tail,
		`{"type":"result/v1","index":0,"result":{"name":"a&b",` + tail,
		`{"type":"result/v1","index":0,"result":{"name":"a` + "\u2028" + `",` + tail,
		`{"type":"result/v1","index":0,"result":{"name":"a` + "\u2029" + `",` + tail,
		`{"type":"result/v1","index":0,"result":{"name":"a","model":"<",` + tail,
		`{"type":"result/v1","index":0,"key":"&","result":{"name":"a",` + tail,
		`{"type":"result/v1","index":0,"result":{"name":"a","status":"OK","candidates":1,"valid":1,"states":{"x<":1},"attempts":1,"elapsed_ms":0}}`,
		`{"type":"result/v1","index":0,"result":{"name":"a","status":"O&K","candidates":1,"valid":1,"attempts":1,"elapsed_ms":0}}`,
		`{"type":"result/v1","index":0,"key":"","result":{"name":"a",` + tail,
		`{"type":"result/v1","index":0,"result":{"name":"a","model":"",` + tail,
		`{"type":"result/v1","index":0,"result":{"name":"a","status":"OK","candidates":1,"valid":1,"reason":"","attempts":1,"elapsed_ms":0}}`,
		`{"type":"result/v1","index":0,"result":{"name":"a","status":"OK","candidates":1,"valid":1,"stack":"","attempts":1,"elapsed_ms":0}}`,
		`{"type":"result/v1","index":-0,"result":{"name":"a",` + tail,
		`{"type":"result/v1","index":0,"result":{"name":"a","status":"OK","candidates":-0,"valid":1,"attempts":1,"elapsed_ms":0}}`,
		`{"type":"result/v1","index":0,"result":{"name":"a","status":"OK","candidates":1,"valid":1,"attempts":1,"elapsed_ms":-0}}`,
		`{"type":"result/v1","index":0,"result":{"name":"a","status":"OK","candidates":1,"valid":1,"states":{"y":1,"x":2},"attempts":1,"elapsed_ms":0}}`,
		`{"type":"result/v1","index":0,"result":{"name":"a","status":"OK","candidates":1,"valid":1,"states":{"x":1,"x":2},"attempts":1,"elapsed_ms":0}}`,
	}
}()

// FuzzResultFrameRelay is the relay's differential against decoding and
// re-encoding: for any line and new index, the relayed bytes are the
// encoder's bytes for the decoded frame renumbered, or the relay refuses
// the line and the gateway decodes and re-encodes it.
func FuzzResultFrameRelay(f *testing.F) {
	for i, line := range goldenLines(f) {
		f.Add(line, i-1)
	}
	for i, line := range relayRefused {
		f.Add([]byte(line), i)
	}
	f.Fuzz(func(t *testing.T, line []byte, index int) {
		checkRelay(t, line, index)
	})
}

// repeatReader serves the same line forever.
type repeatReader struct {
	line []byte
	off  int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c := copy(p[n:], r.line[r.off:])
		n += c
		r.off = (r.off + c) % len(r.line)
	}
	return n, nil
}

// TestResultFrameAllocsCeiling holds the allocations of one warm row's
// result/v1 frame on each side of the codec: encoding into a warmed
// encoder, and decoding one line of a stream.
func TestResultFrameAllocsCeiling(t *testing.T) {
	if os.Getenv("BENCH_ENUM_OUT") == "" {
		t.Skip("set BENCH_ENUM_OUT to run the result frame allocation ceiling check")
	}
	frame := NewResult(17, "sha256:9f2c4e8a1b7d3f605e4c2a9b8d7f6e5c4b3a29181716151413121110f0e0d0c", true, campaign.JobResult{
		Name:       "MP+lwsync+addr",
		Model:      "power",
		Status:     campaign.StatusForbidden,
		Candidates: 16,
		Valid:      12,
		States:     map[string]int{"1:r1=0; 1:r3=0;": 4, "1:r1=0; 1:r3=1;": 4, "1:r1=1; 1:r3=1;": 4},
		Attempts:   1,
	})
	enc := NewEncoder(io.Discard)
	if err := enc.Encode(frame); err != nil {
		t.Fatal(err)
	}
	encAllocs := testing.AllocsPerRun(200, func() {
		if err := enc.Encode(frame); err != nil {
			t.Fatal(err)
		}
	})
	var line bytes.Buffer
	if err := NewEncoder(&line).Encode(frame); err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(&repeatReader{line: line.Bytes()})
	if got, err := dec.Next(); err != nil || !reflect.DeepEqual(got, frame) {
		t.Fatalf("decoded (%#v, %v), want the encoded frame", got, err)
	}
	decAllocs := testing.AllocsPerRun(200, func() {
		if _, err := dec.Next(); err != nil {
			t.Fatal(err)
		}
	})
	relayed := make([]byte, 0, 2*line.Len())
	relayAllocs := testing.AllocsPerRun(200, func() {
		h, ok := relayResult(bytes.TrimSpace(line.Bytes()))
		if !ok {
			t.Fatal("relay refused an encoder-written line")
		}
		h.line, h.Index = line.Bytes(), 3
		relayed = h.appendTo(relayed[:0])
	})
	const encCeiling, decCeiling, relayCeiling = 0, 4, 0
	t.Logf("result/v1 frame: %.1f allocs to encode, %.1f to decode, %.1f to relay", encAllocs, decAllocs, relayAllocs)
	if relayAllocs > relayCeiling {
		t.Errorf("relay: %.1f allocs, ceiling %d", relayAllocs, relayCeiling)
	}
	if encAllocs > encCeiling {
		t.Errorf("encode: %.1f allocs, ceiling %d — result frames are going through reflection again", encAllocs, encCeiling)
	}
	if decAllocs > decCeiling {
		t.Errorf("decode: %.1f allocs, ceiling %d — result frames are going through reflection again", decAllocs, decCeiling)
	}
}

// TestDecoderLongLine pins that a frame longer than the decoder's read
// buffer is reassembled whole, between two ordinary frames.
func TestDecoderLongLine(t *testing.T) {
	long := sampleResult(1)
	long.Result.Reason = string(bytes.Repeat([]byte("incomplete "), 20000))
	frames := []*ResultFrame{sampleResult(0), long, sampleResult(2)}
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for _, f := range frames {
		if err := enc.Encode(f); err != nil {
			t.Fatal(err)
		}
	}
	dec := NewDecoder(&buf)
	for i, want := range frames {
		got, err := dec.Next()
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: got (%v, %v), want the encoded frame", i, got, err)
		}
	}
	if _, err := dec.Next(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}
