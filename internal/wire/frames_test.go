package wire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"herdcats/internal/campaign"
)

// flushRecorder counts writes and flushes, standing in for an
// http.ResponseWriter.
type flushRecorder struct {
	bytes.Buffer
	writes, flushes int
	flushed         int // bytes written up to the last flush
}

func (f *flushRecorder) Write(p []byte) (int, error) {
	f.writes++
	return f.Buffer.Write(p)
}

func (f *flushRecorder) Flush() {
	f.flushes++
	f.flushed = f.Len()
}

func sampleResult(i int) *ResultFrame {
	return NewResult(i, fmt.Sprintf("key-%d", i), i%2 == 0, campaign.JobResult{
		Name:       fmt.Sprintf("tests[%d]", i),
		Status:     campaign.StatusOK,
		Model:      "tso",
		Candidates: 7,
		Valid:      3,
		Attempts:   1,
	})
}

// TestFrameRoundTrip pins that every frame type survives the
// encode → decode trip through a stream intact, and the stream's
// delivery contract: frames are written in bursts, at most one write and
// one flush per frame, and every byte is flushed by the time Close
// returns.
func TestFrameRoundTrip(t *testing.T) {
	defer writerGone(t)
	w := &flushRecorder{}
	_, enc := NewStream(context.Background(), w, time.Hour)
	frames := []any{
		sampleResult(0),
		NewError(1, "tests[1]", "bad_request", "litmus: no such arch"),
		&HeartbeatFrame{Type: FrameHeartbeat, ElapsedMS: 1234},
		NewError(-1, "", "overloaded", "node shed the batch"),
		func() *SummaryFrame {
			s := NewSummary(2)
			s.Counts[campaign.StatusOK] = 1
			s.Counts[campaign.StatusError] = 1
			s.CacheHits = 1
			s.ElapsedMS = 99
			s.PhaseTotalsUS = map[string]int64{"enumerate": 1500}
			return s
		}(),
	}
	for _, f := range frames {
		if err := enc.Encode(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if w.writes < 1 || w.writes > len(frames) || w.flushes != w.writes {
		t.Fatalf("%d writes and %d flushes for %d frames, want one flush per write and at most one write per frame",
			w.writes, w.flushes, len(frames))
	}
	if w.flushed != w.Len() {
		t.Fatalf("%d of %d bytes flushed when Close returned", w.flushed, w.Len())
	}

	dec := NewDecoder(bytes.NewReader(w.Bytes()))
	for i, want := range frames {
		got, err := dec.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d round-trip mismatch:\n got %#v\nwant %#v", i, got, want)
		}
	}
	if _, err := dec.Next(); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

// TestDecoderTruncated pins the torn-tail tolerance: a stream cut
// mid-frame yields the intact frames then ErrTruncated — whether the cut
// left a torn line or just a missing newline.
func TestDecoderTruncated(t *testing.T) {
	w := &flushRecorder{}
	enc := NewEncoder(w)
	for i := 0; i < 3; i++ {
		if err := enc.Encode(sampleResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	full := w.Bytes()

	// Cut at every byte boundary inside the final frame. All but the last
	// boundary leave a torn line; the last drops only the newline, which
	// leaves the frame complete and deliverable.
	lastLine := bytes.LastIndexByte(full[:len(full)-1], '\n') + 1
	for cut := lastLine + 1; cut < len(full); cut++ {
		dec := NewDecoder(bytes.NewReader(full[:cut]))
		for i := 0; i < 2; i++ {
			if _, err := dec.Next(); err != nil {
				t.Fatalf("cut %d: intact frame %d: %v", cut, i, err)
			}
		}
		frame, err := dec.Next()
		if cut == len(full)-1 {
			if err != nil || frame.(*ResultFrame).Index != 2 {
				t.Fatalf("cut %d: newline-only cut gave (%v, %v), want the intact frame", cut, frame, err)
			}
			continue
		}
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut %d: torn tail gave %v, want ErrTruncated", cut, err)
		}
	}
}

// TestDecoderGarbledMidStream pins that corruption before the tail is a
// hard protocol error, not a tolerated truncation.
func TestDecoderGarbledMidStream(t *testing.T) {
	stream := `{"type":"result/v1","index":0,"result":{}}` + "\n" +
		`{"type":"result/v1",GARBAGE` + "\n" +
		`{"type":"heartbeat/v1","elapsed_ms":5}` + "\n"
	dec := NewDecoder(strings.NewReader(stream))
	if _, err := dec.Next(); err != nil {
		t.Fatal(err)
	}
	_, err := dec.Next()
	if err == nil || errors.Is(err, ErrTruncated) || errors.Is(err, io.EOF) {
		t.Fatalf("mid-stream garbage gave %v, want a hard decode error", err)
	}
}

// TestDecoderUnknownFrame pins forward compatibility: a future schema
// version streams through an old decoder as UnknownFrame, and the frames
// after it still decode.
func TestDecoderUnknownFrame(t *testing.T) {
	stream := `{"type":"result/v2","index":0,"shiny":true}` + "\n" +
		`{"type":"heartbeat/v1","elapsed_ms":5}` + "\n"
	dec := NewDecoder(strings.NewReader(stream))
	got, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	u, ok := got.(*UnknownFrame)
	if !ok || u.Type != "result/v2" || !strings.Contains(string(u.Raw), "shiny") {
		t.Fatalf("unknown frame = %#v", got)
	}
	if _, err := dec.Next(); err != nil {
		t.Fatalf("frame after unknown: %v", err)
	}
}

// errWriter fails every write after the first n bytes.
type errWriter struct{ failed bool }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.failed {
		return 0, errors.New("pipe broken")
	}
	w.failed = true
	return len(p), nil
}

// TestEncoderPoisoned pins that the first write error sticks: every
// later Encode returns it without touching the writer, so concurrent
// producers all stop.
func TestEncoderPoisoned(t *testing.T) {
	enc := NewEncoder(&errWriter{})
	if err := enc.Encode(sampleResult(0)); err != nil {
		t.Fatal(err)
	}
	err := enc.Encode(sampleResult(1))
	if err == nil {
		t.Fatal("second encode should fail")
	}
	if err2 := enc.Encode(sampleResult(2)); err2 != err {
		t.Fatalf("poisoned encoder returned %v, want the original %v", err2, err)
	}
	if enc.Err() != err {
		t.Fatalf("Err() = %v, want %v", enc.Err(), err)
	}
}

// TestMergeOrdered pins request-order delivery under out-of-order
// completion, including the head-of-line buffering.
func TestMergeOrdered(t *testing.T) {
	w := &flushRecorder{}
	m := NewMerge(NewEncoder(w), true)
	for _, i := range []int{3, 1, 0, 4, 2} {
		if err := m.Emit(i, sampleResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	dec := NewDecoder(bytes.NewReader(w.Bytes()))
	for want := 0; want < 5; want++ {
		got, err := dec.Next()
		if err != nil {
			t.Fatal(err)
		}
		if got.(*ResultFrame).Index != want {
			t.Fatalf("position %d carries index %d", want, got.(*ResultFrame).Index)
		}
	}
}

// TestMergeUnordered pins that without ordering every frame is written
// the moment it is emitted — completion order, no buffering.
func TestMergeUnordered(t *testing.T) {
	w := &flushRecorder{}
	m := NewMerge(NewEncoder(w), false)
	order := []int{3, 1, 0}
	for _, i := range order {
		if err := m.Emit(i, sampleResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	dec := NewDecoder(bytes.NewReader(w.Bytes()))
	for pos, want := range order {
		got, err := dec.Next()
		if err != nil {
			t.Fatal(err)
		}
		if got.(*ResultFrame).Index != want {
			t.Fatalf("position %d carries index %d, want %d", pos, got.(*ResultFrame).Index, want)
		}
	}
}

// TestMergeOrderedConcurrent hammers the ordered merge from concurrent
// producers (run under -race) and checks the output is a permutation-
// free 0..n-1 sequence.
func TestMergeOrderedConcurrent(t *testing.T) {
	const n = 64
	w := &flushRecorder{}
	m := NewMerge(NewEncoder(w), true)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = m.Emit(i, sampleResult(i))
		}(i)
	}
	wg.Wait()
	dec := NewDecoder(bytes.NewReader(w.Bytes()))
	for want := 0; want < n; want++ {
		got, err := dec.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", want, err)
		}
		if got.(*ResultFrame).Index != want {
			t.Fatalf("position %d carries index %d", want, got.(*ResultFrame).Index)
		}
	}
}
