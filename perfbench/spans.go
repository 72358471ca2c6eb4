package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer: its name, its interval relative to
// the recorder's start, and the span that caused it (0 = none).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanRec keeps a traced run's spans in memory until the run ends. It is
// safe for concurrent use; server-side handler wrappers record from the
// HTTP server's goroutines. A nil *spanRec records nothing.
type spanRec struct {
	t0    time.Time
	on    atomic.Bool
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newSpanRec() *spanRec { return &spanRec{t0: time.Now()} }

// id reserves a span ID, so children can name a parent that has not ended.
func (r *spanRec) id() int64 {
	if r == nil {
		return 0
	}
	return r.ids.Add(1)
}

// add records a finished span under a reserved (or fresh, when id is 0) ID.
func (r *spanRec) add(id, parent int64, name string, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	if id == 0 {
		id = r.id()
	}
	s := span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return id
}

// wrap records a span named name around every /v1 request h serves while
// the recorder is on; the client's span ID arrives in spanHeader.
func (r *spanRec) wrap(h http.Handler, name string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() || !strings.HasPrefix(req.URL.Path, "/v1/") {
			h.ServeHTTP(w, req)
			return
		}
		parent, _ := strconv.ParseInt(req.Header.Get(spanHeader), 10, 64) // absent = 0
		start := time.Now()
		h.ServeHTTP(w, req)
		r.add(0, parent, name, start, time.Now())
	})
}

// byName returns the recorded spans named name, in recording order.
func (r *spanRec) byName(name string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// lastSpan returns the most recent span named name.
func (r *spanRec) lastSpan(name string) (span, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.spans) - 1; i >= 0; i-- {
		if r.spans[i].Name == name {
			return r.spans[i], true
		}
	}
	return span{}, false
}

// write stores the spans as JSON lines under dir and returns the path.
func (r *spanRec) write(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	n := len(r.spans)
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return fmt.Sprintf("%s (%d spans)", path, n), nil
}
