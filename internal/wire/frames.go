package wire

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"herdcats/internal/campaign"
	"herdcats/internal/obs"
)

// Frame type tags. The version suffix is part of the wire contract: a
// field-incompatible change mints result/v2 rather than mutating v1, so
// old decoders skip what they do not know (UnknownFrame) instead of
// misreading it.
const (
	FrameResult    = "result/v1"
	FrameError     = "error/v1"
	FrameSummary   = "summary/v1"
	FrameHeartbeat = "heartbeat/v1"
)

// ResultFrame carries one test's verdict: its index in the request, the
// verdict's cache key, whether it was served warm, and the same campaign
// row a buffered BatchResponse would hold at Report.Jobs[Index].
type ResultFrame struct {
	Type   string             `json:"type"`
	Index  int                `json:"index"`
	Key    string             `json:"key,omitempty"`
	Cached bool               `json:"cached,omitempty"`
	Result campaign.JobResult `json:"result"`
}

// NewResult builds a result/v1 frame.
func NewResult(index int, key string, cached bool, res campaign.JobResult) *ResultFrame {
	return &ResultFrame{Type: FrameResult, Index: index, Key: key, Cached: cached, Result: res}
}

// ErrorFrame carries one test's hard failure in the same envelope body a
// buffered error response would use. Index -1 means the stream itself
// failed (e.g. the node shed the whole batch mid-flight); per-test
// failures carry their request index and cost only their row.
type ErrorFrame struct {
	Type  string    `json:"type"`
	Index int       `json:"index"`
	Name  string    `json:"name,omitempty"`
	Error ErrorBody `json:"error"`
}

// NewError builds an error/v1 frame.
func NewError(index int, name, code, message string) *ErrorFrame {
	return &ErrorFrame{Type: FrameError, Index: index, Name: name, Error: ErrorBody{Code: code, Message: message}}
}

// SummaryFrame is the terminal frame of a well-formed stream: the batch
// totals a buffered BatchResponse's report would carry, plus the cache-hit
// count and (when the node traced) the phase aggregates.
type SummaryFrame struct {
	Type      string                  `json:"type"`
	Tests     int                     `json:"tests"`
	Counts    map[campaign.Status]int `json:"counts"`
	CacheHits int                     `json:"cache_hits"`
	ElapsedMS int64                   `json:"elapsed_ms"`

	// PhaseTotals sums the per-test phase durations (parse → compile →
	// enumerate → check → verdict), in microseconds, and the per-test
	// enumeration counters.
	obs.PhaseTotals
	// Options echoes the effective options (absent on gateway-merged
	// streams, where each backend clamps independently).
	Options *EffectiveOptions `json:"options,omitempty"`
}

// NewSummary builds a summary/v1 frame with its counts map allocated.
func NewSummary(tests int) *SummaryFrame {
	return &SummaryFrame{Type: FrameSummary, Tests: tests, Counts: map[campaign.Status]int{}}
}

// HeartbeatFrame keeps an idle stream visibly alive: a campaign can sit
// for minutes in one giant enumeration, and without traffic every proxy
// and client timeout in the path starts counting.
type HeartbeatFrame struct {
	Type      string `json:"type"`
	ElapsedMS int64  `json:"elapsed_ms"`
}

// UnknownFrame preserves a frame whose type this decoder does not know —
// a newer schema version streaming through an older reader. Callers skip
// it (or log it); the stream stays decodable.
type UnknownFrame struct {
	Type string
	Raw  json.RawMessage
}

// ErrTruncated reports a stream cut mid-frame: everything decoded before
// it is intact, but the producer went away without finishing. Callers
// treat it as "incomplete", not "corrupt" — the streaming analogue of the
// mining journal's torn-line tolerance.
var ErrTruncated = errors.New("wire: stream truncated mid-frame")

// Encoder writes frames as NDJSON, one compact JSON object per line.
// Encode is safe for concurrent use; after the first write error the
// encoder is poisoned and every call returns that error, so a producer
// fanning out across goroutines stops promptly when the client goes away.
//
// An encoder from NewEncoder writes (and, when the writer supports it,
// flushes) each frame before Encode returns. An encoder from NewStream
// is a response stream's: Encode appends the frame to the stream's
// pending bytes and returns, and one writer goroutine hands everything
// pending to one Write and one Flush — so a burst of verdicts costs one
// write, not one per frame.
type Encoder struct {
	mu    sync.Mutex
	w     io.Writer
	flush func()
	err   error
	buf   []byte   // the frame being written; a stream's pending frames
	keys  []string // scratch for sorting a result frame's states keys
	s     *stream  // nil for a synchronous encoder
}

// stream is the writer goroutine's side of a NewStream encoder; closed
// and ended are guarded by the encoder's mu.
type stream struct {
	room   *sync.Cond    // signalled when the writer takes the pending bytes
	wake   chan struct{} // a token when pending bytes await the writer
	done   chan struct{} // closed when the writer has exited
	cancel context.CancelFunc
	closed bool
	ended  bool // the summary/v1 frame is queued: no heartbeat may follow
	bufs   *streamBufs
}

// streamBufs are a stream's two byte buffers, the pending frames and the
// batch the writer holds. They swap on every hand-over, come from
// streamPool when the stream opens and go back to it when Close has
// stopped the writer, so a warm stream grows neither.
type streamBufs struct{ pending, batch []byte }

var streamPool = sync.Pool{New: func() any { return new(streamBufs) }}

// maxPooledStream caps the buffers streamPool keeps, so one oversized
// frame does not stay resident.
const maxPooledStream = 256 << 10

// maxPending bounds a stream's pending bytes: a producer that finds more
// waits for the writer, so a client that stops reading stalls the
// producers (as TCP backpressure would) instead of growing the buffer.
// At most one more frame, and the batch the writer holds, come on top.
const maxPending = 64 << 10

// errStreamClosed is returned by Encode on a stream after Close.
var errStreamClosed = errors.New("wire: stream closed")

// NewEncoder builds an encoder over w that writes each frame before
// Encode returns, flushing after it when w supports it.
func NewEncoder(w io.Writer) *Encoder {
	e := &Encoder{w: w}
	if f, ok := w.(interface{ Flush() }); ok {
		e.flush = f.Flush
	}
	return e
}

// NewStream builds the encoder of one NDJSON response stream over w and
// starts its writer goroutine. The writer passes everything pending to
// one Write, then flushes when w supports it; no frame waits for a later
// one. When nothing has been written for heartbeat (positive; worst-case
// gap just under 2×heartbeat) and no summary/v1 frame has been queued,
// it writes a heartbeat/v1 frame, its elapsed_ms counted from now. The
// returned context is ctx, cancelled by the first write error (the
// client is gone) and by Close; Close must be called to drain the stream
// and stop the writer.
func NewStream(ctx context.Context, w io.Writer, heartbeat time.Duration) (context.Context, *Encoder) {
	ctx, cancel := context.WithCancel(ctx)
	e := NewEncoder(w)
	e.s = &stream{
		room:   sync.NewCond(&e.mu),
		wake:   make(chan struct{}, 1),
		done:   make(chan struct{}),
		cancel: cancel,
		bufs:   streamPool.Get().(*streamBufs),
	}
	e.buf = e.s.bufs.pending[:0]
	go e.run(heartbeat, time.Now(), e.s.bufs.batch[:0])
	return ctx, e
}

// Encode writes one frame — on a stream, queues it for the writer.
func (e *Encoder) Encode(frame any) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.s == nil {
		return e.encodeLocked(frame)
	}
	for e.err == nil && !e.s.closed && len(e.buf) > maxPending {
		e.s.room.Wait()
	}
	switch {
	case e.err != nil:
		return e.err
	case e.s.closed:
		return errStreamClosed
	}
	n := len(e.buf)
	var err error
	if e.buf, err = e.appendFrame(e.buf, frame); err != nil {
		e.buf = e.buf[:n]
		e.failLocked(err)
		return err
	}
	if _, ok := frame.(*SummaryFrame); ok {
		e.s.ended = true
	}
	if n == 0 {
		select {
		case e.s.wake <- struct{}{}:
		default: // a token is already waiting
		}
	}
	return nil
}

// appendFrame appends frame's line, newline included, to b.
func (e *Encoder) appendFrame(b []byte, frame any) ([]byte, error) {
	var err error
	switch f := frame.(type) {
	case *ResultFrame:
		if f == nil {
			b = append(b, "null"...) // json.Marshal's bytes for a nil frame
			break
		}
		b, e.keys, err = appendResultFrame(b, f, e.keys)
	case *RelayResult:
		b = f.appendTo(b)
	case *StoredResult:
		b = f.appendTo(b)
	default:
		var line []byte
		line, err = json.Marshal(frame)
		b = append(b, line...)
	}
	return append(b, '\n'), err
}

// encodeLocked writes one frame synchronously.
func (e *Encoder) encodeLocked(frame any) error {
	if e.err != nil {
		return e.err
	}
	var err error
	if e.buf, err = e.appendFrame(e.buf[:0], frame); err != nil {
		e.err = err
		return err
	}
	if _, err := e.w.Write(e.buf); err != nil {
		e.err = err
		return err
	}
	if e.flush != nil {
		e.flush()
	}
	return nil
}

// failLocked poisons a stream with err, releases the producers waiting
// for room, and cancels the stream's context.
func (e *Encoder) failLocked(err error) {
	if e.err == nil {
		e.err = err
	}
	e.buf = e.buf[:0]
	e.s.room.Broadcast()
	e.s.cancel()
}

// run is a stream's writer goroutine: on each wake-up it takes every
// pending byte, writes them with one Write and one Flush, and exits once
// Close has been called and nothing is left.
func (e *Encoder) run(heartbeat time.Duration, start time.Time, batch []byte) {
	defer close(e.s.done)
	tick := time.NewTicker(heartbeat)
	defer tick.Stop()
	last := start
	for {
		select {
		case <-e.s.wake:
		case <-tick.C:
		}
		e.mu.Lock()
		if len(e.buf) == 0 && e.err == nil && !e.s.closed && !e.s.ended && time.Since(last) >= heartbeat {
			e.buf, _ = e.appendFrame(e.buf, &HeartbeatFrame{Type: FrameHeartbeat, ElapsedMS: time.Since(start).Milliseconds()})
		}
		batch, e.buf = e.buf, batch[:0]
		closed := e.s.closed
		e.s.room.Broadcast()
		e.mu.Unlock()

		if len(batch) > 0 {
			_, err := e.w.Write(batch)
			if err == nil && e.flush != nil {
				e.flush()
			}
			if err != nil {
				e.mu.Lock()
				e.failLocked(err)
				e.mu.Unlock()
			}
			last = time.Now()
		}
		if closed {
			e.s.bufs.batch = batch // Close reads it after done is closed
			return
		}
	}
}

// Close drains a stream: it returns once every frame queued before it
// has been written (or the stream has failed) and the writer goroutine
// has exited, then cancels the stream's context and returns the stream's
// buffers to their pool. Frames encoded after Close are refused, and
// never touch those buffers. On an encoder from NewEncoder, Close does
// nothing. Calling Close again is harmless.
func (e *Encoder) Close() error {
	if e.s == nil {
		return nil
	}
	e.mu.Lock()
	e.s.closed = true
	e.s.room.Broadcast()
	e.mu.Unlock()
	select {
	case e.s.wake <- struct{}{}:
	default:
	}
	<-e.s.done
	e.s.cancel()
	e.mu.Lock()
	defer e.mu.Unlock()
	if bufs := e.s.bufs; bufs != nil {
		e.s.bufs = nil
		bufs.pending, e.buf = e.buf, nil
		if cap(bufs.pending) > maxPooledStream {
			bufs.pending = nil
		}
		if cap(bufs.batch) > maxPooledStream {
			bufs.batch = nil
		}
		streamPool.Put(bufs)
	}
	return e.err
}

// Err returns the error that poisoned the encoder, if any.
func (e *Encoder) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// Merge serialises per-test frames from concurrent producers onto one
// encoder. Unordered, a frame is encoded the moment its test completes;
// ordered, frames are held until every lower index has been emitted, so
// the stream replays in request order at the cost of head-of-line
// buffering. Each index must be emitted exactly once.
type Merge struct {
	enc     *Encoder
	ordered bool

	mu      sync.Mutex
	next    int
	pending map[int]any
}

// NewMerge builds a merge over enc.
func NewMerge(enc *Encoder, ordered bool) *Merge {
	return &Merge{enc: enc, ordered: ordered, pending: map[int]any{}}
}

// Emit hands index's frame to the merge.
func (m *Merge) Emit(index int, frame any) error {
	if !m.ordered {
		return m.enc.Encode(frame)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pending[index] = frame
	for {
		f, ok := m.pending[m.next]
		if !ok {
			return m.enc.Err()
		}
		delete(m.pending, m.next)
		m.next++
		if err := m.enc.Encode(f); err != nil {
			return err
		}
	}
}

// Decoder reads an NDJSON frame stream. It tolerates a truncated tail:
// a torn final line that no longer parses yields ErrTruncated after the
// intact frames, while a final line missing only its newline still
// parses and is delivered. Unknown frame types are preserved as
// UnknownFrame.
type Decoder struct {
	r    *bufio.Reader
	long []byte // a line longer than r's buffer, reassembled
}

// readers recycles the decoders' read buffers. No frame aliases one:
// readLine's lines are copied into every frame that keeps them.
var readers = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 64<<10) }}

// errDecoderReleased is returned by Next after Release.
var errDecoderReleased = errors.New("wire: decoder released")

// NewDecoder builds a decoder over r. Its read buffer comes from a pool;
// Release returns it.
func NewDecoder(r io.Reader) *Decoder {
	br := readers.Get().(*bufio.Reader)
	br.Reset(r)
	return &Decoder{r: br}
}

// Release returns the decoder's read buffer to its pool and drops its
// hold on the reader. Frames already returned stay valid; Next returns
// an error from then on. A decoder that is never released is simply
// collected. Calling Release again is harmless.
func (d *Decoder) Release() {
	if d.r == nil {
		return
	}
	d.r.Reset(nil)
	readers.Put(d.r)
	d.r, d.long = nil, nil
}

// Next returns the next frame — *ResultFrame, *ErrorFrame, *SummaryFrame,
// *HeartbeatFrame or *UnknownFrame — io.EOF at a clean end of stream, or
// ErrTruncated when the stream was cut mid-frame.
func (d *Decoder) Next() (any, error) { return d.next(false) }

// NextRelay is Next for a relay: a result/v1 line that is byte for byte
// what the encoder writes for its frame comes back as a *RelayResult,
// undecoded; every other line comes back as Next returns it.
func (d *Decoder) NextRelay() (any, error) { return d.next(true) }

func (d *Decoder) next(relay bool) (any, error) {
	if d.r == nil {
		return nil, errDecoderReleased
	}
	for {
		line, err := d.readLine()
		if err != nil && err != io.EOF {
			return nil, err
		}
		atEOF := err == io.EOF
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			if atEOF {
				return nil, io.EOF
			}
			continue
		}
		if relay {
			if f, ok := relayResult(line); ok {
				f.line = append([]byte(nil), line...)
				return &f, nil
			}
		}
		frame, ferr := decodeFrame(line)
		if ferr != nil {
			// A garbled line at the very end of the stream is a cut, not
			// corruption; anywhere else it is a protocol error.
			if atEOF || d.atEOF() {
				return nil, ErrTruncated
			}
			return nil, ferr
		}
		return frame, nil
	}
}

// readLine returns the next line, newline included when present. The
// line aliases the reader's buffer (or d.long) until the next read;
// frames copy what they keep.
func (d *Decoder) readLine() ([]byte, error) {
	line, err := d.r.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	d.long = append(d.long[:0], line...)
	for err == bufio.ErrBufferFull {
		line, err = d.r.ReadSlice('\n')
		d.long = append(d.long, line...)
	}
	return d.long, err
}

// atEOF reports whether the underlying reader has no more bytes.
func (d *Decoder) atEOF() bool {
	_, err := d.r.Peek(1)
	return err == io.EOF
}

// decodeFrame decodes one line. A line opening with a v1 type tag takes
// one pass: decodeResult for an encoder-shaped result/v1 line, else one
// json.Unmarshal into that tag's frame, kept only if encoding/json reads
// the same type from it. Every other line, and every failure, goes to
// decodeFrameJSON, so the outcome is always what it alone would return.
func decodeFrame(line []byte) (any, error) {
	tag := typeTag(line)
	var frame any
	var typ *string
	switch tag {
	case FrameResult:
		if f, ok := decodeResult(line); ok {
			return f, nil
		}
		f := &ResultFrame{}
		frame, typ = f, &f.Type
	case FrameError:
		f := &ErrorFrame{}
		frame, typ = f, &f.Type
	case FrameSummary:
		f := &SummaryFrame{}
		frame, typ = f, &f.Type
	case FrameHeartbeat:
		f := &HeartbeatFrame{}
		frame, typ = f, &f.Type
	default:
		return decodeFrameJSON(line)
	}
	// The frame's type field matches keys exactly as a lone type probe
	// would, so equal tags mean decodeFrameJSON would pick this frame.
	if err := json.Unmarshal(line, frame); err == nil && *typ == tag {
		return frame, nil
	}
	return decodeFrameJSON(line)
}

// decodeFrameJSON is the reference decoder: encoding/json reads the type,
// then the frame it names.
func decodeFrameJSON(line []byte) (any, error) {
	var head struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(line, &head); err != nil {
		return nil, fmt.Errorf("wire: bad frame: %w", err)
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
		return nil, fmt.Errorf("wire: frame missing type: %s", line)
	default:
		return &UnknownFrame{Type: head.Type, Raw: append(json.RawMessage(nil), line...)}, nil
	}
	if err := json.Unmarshal(line, frame); err != nil {
		return nil, fmt.Errorf("wire: bad %s frame: %w", head.Type, err)
	}
	return frame, nil
}
