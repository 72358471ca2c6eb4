// Package testleak is the repo's shared goroutine-leak check: snapshot
// the goroutine count before the scenario, tear everything down, then
// poll (with GC) until the count returns to within a small slack of the
// baseline or a deadline passes. The polling absorbs the asynchronous
// tails Go's runtime legitimately leaves behind — finalizers, an
// http.Server's last keep-alive closing — while still catching the real
// leaks: a campaign worker wedged on a channel, a heartbeat ticker
// nobody stopped, a streaming response body never closed.
//
// Usage is two lines around the scenario:
//
//	check := testleak.Baseline()
//	defer check(t)
//
// Baseline must be taken before the scenario spawns anything, and the
// returned check must run after every server/client involved is closed —
// in a defer, it runs before the test binary's own teardown, which is
// the right moment.
package testleak

import (
	"bytes"
	"runtime"
	"time"
)

// Slack is how many goroutines above the baseline still count as clean:
// the runtime's own background goroutines come and go by a few.
const Slack = 3

// Deadline bounds how long a check waits for the tail to drain before
// declaring a leak.
const Deadline = 10 * time.Second

// TB is the subset of *testing.T the check needs (so the package has no
// testing import in its API, and the helper works under *testing.B too).
type TB interface {
	Helper()
	Fatalf(format string, args ...any)
}

// Baseline snapshots the current goroutine count and returns the check
// to run after teardown.
func Baseline() func(t TB) {
	baseline := runtime.NumGoroutine()
	return func(t TB) {
		t.Helper()
		deadline := time.Now().Add(Deadline)
		for {
			runtime.GC()
			n := runtime.NumGoroutine()
			if n <= baseline+Slack {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Fatalf("goroutine leak: %d running, baseline %d\n%s",
					n, baseline, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
}

// Gone polls until no goroutine is running fn — a function as a
// goroutine dump names it, e.g. "herdcats/internal/wire.(*Encoder).run"
// — and fails with the dump if one still is after Deadline. It pins one
// goroutine exactly where Baseline's count, with its Slack, cannot.
func Gone(t TB, fn string) {
	t.Helper()
	frame := []byte(fn + "(")
	deadline := time.Now().Add(Deadline)
	for {
		buf := make([]byte, 1<<20)
		dump := buf[:runtime.Stack(buf, true)]
		if !bytes.Contains(dump, frame) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("a goroutine running %s was left behind\n%s", fn, dump)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
