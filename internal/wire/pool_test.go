package wire

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// poolStream is a stream of four result frames, the last one longer
// than the decoder's 64 KiB read buffer, then an unknown frame's line;
// every name, reason and payload is filled with fill.
func poolStream(t *testing.T, fill byte) (stream []byte, results []*ResultFrame, unknown string) {
	t.Helper()
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for i := 0; i < 3; i++ {
		f := sampleResult(i)
		f.Result.Name = strings.Repeat(string(fill), 10+i)
		results = append(results, f)
	}
	long := sampleResult(3)
	long.Result.Reason = strings.Repeat(string(fill), 80<<10)
	results = append(results, long)
	for _, f := range results {
		if err := enc.Encode(f); err != nil {
			t.Fatal(err)
		}
	}
	unknown = `{"type":"future/v9","payload":"` + strings.Repeat(string(fill), 40) + `"}`
	buf.WriteString(unknown + "\n")
	return buf.Bytes(), results, unknown
}

// decodeAll reads every frame of stream with one decoder, relayed or
// not, then releases the decoder.
func decodeAll(t *testing.T, stream []byte, relay bool) []any {
	t.Helper()
	dec := NewDecoder(bytes.NewReader(stream))
	defer dec.Release()
	next := dec.Next
	if relay {
		next = dec.NextRelay
	}
	var frames []any
	for {
		f, err := next()
		if err == io.EOF {
			return frames
		}
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
}

// TestDecoderReleaseKeepsFrames pins the read buffer's lifetime: frames
// decoded from one stream — a ResultFrame, a RelayResult, an
// UnknownFrame's Raw line, and a line longer than the read buffer — are
// unchanged after their decoder is released and after pooled readers
// have decoded a different stream of the same shape. Next after Release
// is refused.
func TestDecoderReleaseKeepsFrames(t *testing.T) {
	streamA, results, unknown := poolStream(t, 'a')
	streamB, _, _ := poolStream(t, 'b')
	decoded := decodeAll(t, streamA, false)
	relayed := decodeAll(t, streamA, true)
	for i := 0; i < 8; i++ {
		decodeAll(t, streamB, i%2 == 0)
	}

	if len(decoded) != len(results)+1 || len(relayed) != len(results)+1 {
		t.Fatalf("decoded %d and relayed %d frames, want %d", len(decoded), len(relayed), len(results)+1)
	}
	lines := bytes.SplitAfter(streamA, []byte("\n"))
	for i, want := range results {
		if !reflect.DeepEqual(decoded[i], want) {
			t.Errorf("frame %d changed after release: %#v", i, decoded[i])
		}
		rf, ok := relayed[i].(*RelayResult)
		if !ok {
			t.Fatalf("frame %d relayed as %T, want *RelayResult", i, relayed[i])
		}
		if got := rf.appendTo(nil); !bytes.Equal(append(got, '\n'), lines[i]) {
			t.Errorf("relayed frame %d changed after release:\n %.120s\nwant\n %.120s", i, got, lines[i])
		}
	}
	for _, frames := range [][]any{decoded, relayed} {
		uf, ok := frames[len(results)].(*UnknownFrame)
		if !ok || string(uf.Raw) != unknown {
			t.Errorf("unknown frame changed after release: %#v", frames[len(results)])
		}
	}

	dec := NewDecoder(bytes.NewReader(streamA))
	dec.Release()
	dec.Release()
	if f, err := dec.Next(); !errors.Is(err, errDecoderReleased) {
		t.Fatalf("Next after Release: (%v, %v), want errDecoderReleased", f, err)
	}
}

// TestStreamEncodeAfterClose pins the stream buffers' lifetime: while a
// slow stream's Close drains it, other streams open, take buffers from
// the pool, write and close; afterwards Encode on the closed stream
// returns errStreamClosed, from many goroutines at once. No stream's
// output carries another's frames. Run it under -race: a write into a
// buffer another stream holds is a data race.
func TestStreamEncodeAfterClose(t *testing.T) {
	defer writerGone(t)
	ctx := context.Background()
	w1 := &slowWriter{}
	_, first := NewStream(ctx, w1, time.Hour)
	var want bytes.Buffer
	for i := 0; i < 20; i++ {
		if err := first.Encode(sampleResult(i)); err != nil {
			t.Fatal(err)
		}
		if err := NewEncoder(&want).Encode(sampleResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	closed := make(chan error, 1)
	go func() { closed <- first.Close() }()

	others := make([]flushRecorder, 8)
	var wg sync.WaitGroup
	for g := range others {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, s := NewStream(ctx, &others[g], time.Hour)
			for i := 0; i < 50; i++ {
				if err := s.Encode(sampleResult(100*(g+1) + i)); err != nil {
					t.Error(err)
					break
				}
			}
			if err := s.Close(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := first.Encode(sampleResult(1000 + i)); !errors.Is(err, errStreamClosed) {
					t.Errorf("Encode after Close: %v, want errStreamClosed", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := first.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	w1.mu.Lock()
	got := w1.buf.Bytes()
	w1.mu.Unlock()
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("the closed stream wrote\n%s\nwant its own 20 frames\n%s", got, want.Bytes())
	}
	for g := range others {
		var frames []int
		for _, f := range decodeAll(t, others[g].Bytes(), false) {
			frames = append(frames, f.(*ResultFrame).Index)
		}
		if len(frames) != 50 || frames[0] != 100*(g+1) || frames[49] != 100*(g+1)+49 {
			t.Fatalf("stream %d carried frames %v, want its own 50", g, frames)
		}
	}
}

// TestStreamPoolCapsBuffers pins that a stream which grew a buffer past
// maxPooledStream does not hand it on: no later stream starts with one.
func TestStreamPoolCapsBuffers(t *testing.T) {
	defer writerGone(t)
	big := sampleResult(0)
	big.Result.Reason = strings.Repeat("x", 2*maxPooledStream)
	var w flushRecorder
	_, enc := NewStream(context.Background(), &w, time.Hour)
	if err := enc.Encode(big); err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		_, next := NewStream(context.Background(), &w, time.Hour)
		next.mu.Lock()
		pending, batch := cap(next.buf), cap(next.s.bufs.batch)
		next.mu.Unlock()
		if err := next.Close(); err != nil {
			t.Fatal(err)
		}
		if pending > maxPooledStream || batch > maxPooledStream {
			t.Fatalf("a new stream starts with buffers of %d and %d bytes, cap %d", pending, batch, maxPooledStream)
		}
	}
}
