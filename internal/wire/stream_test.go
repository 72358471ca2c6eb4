package wire

import (
	"bytes"
	"context"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"herdcats/internal/testleak"
)

// writerGone fails if a stream's writer goroutine outlived its test.
func writerGone(t *testing.T) {
	t.Helper()
	testleak.Gone(t, "herdcats/internal/wire.(*Encoder).run")
}

// TestStreamFrameNotHeld pins that no frame waits for a later one: each
// frame reaches a reader on the far side of a pipe while its producer is
// blocked waiting for that very read.
func TestStreamFrameNotHeld(t *testing.T) {
	defer writerGone(t)
	pr, pw := io.Pipe()
	defer pr.Close()
	_, enc := NewStream(context.Background(), pw, time.Hour)
	defer enc.Close()
	dec := NewDecoder(pr)
	for i := 0; i < 5; i++ {
		got := make(chan any, 1)
		go func() {
			f, err := dec.Next()
			if err != nil {
				f = err
			}
			got <- f
		}()
		if err := enc.Encode(sampleResult(i)); err != nil {
			t.Fatal(err)
		}
		select {
		case f := <-got:
			if rf, ok := f.(*ResultFrame); !ok || rf.Index != i {
				t.Fatalf("frame %d: read %#v", i, f)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("frame %d never reached the reader: the stream held it back", i)
		}
	}
}

// slowWriter takes a while over every write, so frames pile up behind
// the one in flight.
type slowWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *slowWriter) Write(p []byte) (int, error) {
	time.Sleep(2 * time.Millisecond)
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

// TestStreamCloseDrains pins that Close returns only once every frame
// queued before it has been written, that concurrent producers' frames
// share writes, and that Encode after Close is refused.
func TestStreamCloseDrains(t *testing.T) {
	defer writerGone(t)
	const producers, each = 4, 50
	w := &slowWriter{}
	ctx, enc := NewStream(context.Background(), w, time.Hour)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := enc.Encode(sampleResult(p*each + i)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if ctx.Err() == nil {
		t.Fatal("Close left the stream's context live")
	}
	if err := enc.Encode(sampleResult(0)); err == nil {
		t.Fatal("Encode after Close was accepted")
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	seen := map[int]bool{}
	dec := NewDecoder(&w.buf)
	for {
		f, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		seen[f.(*ResultFrame).Index] = true
	}
	if len(seen) != producers*each {
		t.Fatalf("%d of %d frames written when Close returned", len(seen), producers*each)
	}
}

// TestStreamBoundsPending pins backpressure: with a client that reads
// nothing, the pending bytes stay under the fixed bound (plus one frame)
// and the producer blocks; when the client goes away the write error
// releases the producer and cancels the stream.
func TestStreamBoundsPending(t *testing.T) {
	defer writerGone(t)
	pr, pw := io.Pipe()
	ctx, enc := NewStream(context.Background(), pw, time.Hour)

	// Frame sizes vary with the index: bound them from both sides.
	size := func(i int) int {
		var line bytes.Buffer
		if err := NewEncoder(&line).Encode(sampleResult(i)); err != nil {
			t.Fatal(err)
		}
		return line.Len()
	}
	minFrame, maxFrame := size(1), size(1<<20)

	var mu sync.Mutex
	encoded := 0
	produced := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			if err := enc.Encode(sampleResult(i)); err != nil {
				produced <- err
				return
			}
			mu.Lock()
			encoded++
			mu.Unlock()
		}
	}()

	// Wait until the producer stops making progress: it is blocked.
	last := -1
	for deadline := time.Now().Add(10 * time.Second); ; {
		time.Sleep(50 * time.Millisecond)
		mu.Lock()
		n := encoded
		mu.Unlock()
		if n == last {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("producer still encoding (%d frames) with nobody reading", n)
		}
		last = n
	}
	enc.mu.Lock()
	pending := len(enc.buf)
	enc.mu.Unlock()
	if pending > maxPending+maxFrame {
		t.Fatalf("%d bytes pending, bound %d plus one %d-byte frame", pending, maxPending, maxFrame)
	}
	// The writer holds one batch in its blocked write; nothing else is
	// buffered anywhere.
	if total := last * minFrame; total > 2*(maxPending+maxFrame) {
		t.Fatalf("%d frames (at least %d bytes) accepted with nobody reading", last, total)
	}
	select {
	case err := <-produced:
		t.Fatalf("producer stopped early: %v", err)
	default:
	}

	// The client goes away: the failed write releases the producer with
	// the error and cancels the stream.
	gone := errors.New("client gone")
	pr.CloseWithError(gone)
	select {
	case err := <-produced:
		if !errors.Is(err, gone) {
			t.Fatalf("blocked producer released with %v, want %v", err, gone)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("producer still blocked after the client went away")
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("write error did not cancel the stream")
	}
	if err := enc.Close(); !errors.Is(err, gone) {
		t.Fatalf("Close = %v, want %v", err, gone)
	}
}

// TestStreamWriteErrorCancels pins that a stream's first write error
// cancels its context and poisons every later Encode with that error.
func TestStreamWriteErrorCancels(t *testing.T) {
	defer writerGone(t)
	ctx, enc := NewStream(context.Background(), &errWriter{failed: true}, time.Hour)
	defer enc.Close()
	if err := enc.Encode(sampleResult(0)); err != nil {
		t.Fatalf("first Encode only queues, yet failed: %v", err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("write error did not cancel the stream")
	}
	err := enc.Encode(sampleResult(1))
	if err == nil || err != enc.Err() {
		t.Fatalf("Encode after the write error = %v, Err() = %v; want the write error", err, enc.Err())
	}
}

// TestStreamHeartbeat pins the idle heartbeat: a stream written to more
// often than the interval carries (almost) no heartbeat, an idle one
// writes heartbeat/v1 frames, and none follows the summary.
func TestStreamHeartbeat(t *testing.T) {
	defer writerGone(t)
	const interval = 30 * time.Millisecond
	w := &slowWriter{}
	_, enc := NewStream(context.Background(), w, interval)
	const busy = 150
	for i := 0; i < busy; i++ {
		if err := enc.Encode(sampleResult(i)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(interval / 15)
	}
	time.Sleep(5 * interval)
	if err := enc.Encode(NewSummary(0)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * interval)
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}

	// Heartbeats among the results, after the last result, after the
	// summary.
	var beats [3]int
	phase, results := 0, 0
	dec := NewDecoder(&w.buf)
	for {
		f, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch f.(type) {
		case *HeartbeatFrame:
			beats[phase]++
		case *ResultFrame:
			if results++; results == busy {
				phase = 1
			}
		case *SummaryFrame:
			phase = 2
		}
	}
	// A stall of the producer may let one or two through; a heartbeat
	// per tick would be ten.
	if beats[0] > 2 {
		t.Errorf("%d heartbeats on a stream written every %v", beats[0], interval/15)
	}
	if beats[1] == 0 {
		t.Error("no heartbeat on a stream idle for 5 intervals")
	}
	if beats[2] != 0 || phase != 2 {
		t.Errorf("%d heartbeats after the summary (summary seen: %v)", beats[2], phase == 2)
	}
}
