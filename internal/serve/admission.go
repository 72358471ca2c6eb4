package serve

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"herdcats/internal/obs"
	"herdcats/internal/wire"
)

// Admission-control defaults (Config documents the knobs).
const (
	// DefaultMaxQueue bounds the requests allowed to wait for a slot.
	DefaultMaxQueue = 64
	// DefaultMaxQueueWait bounds how long one request may wait for a
	// slot before the server sheds it with 429 + Retry-After.
	DefaultMaxQueueWait = time.Second
)

func (c Config) maxConcurrent() int {
	if c.MaxConcurrent > 0 {
		return c.MaxConcurrent
	}
	// Simulation is CPU-bound; twice GOMAXPROCS keeps the cores busy
	// while a few requests are parked in the memo layer's single-flight
	// wait, and the floor of 4 keeps tiny containers responsive.
	if n := 2 * runtime.GOMAXPROCS(0); n > 4 {
		return n
	}
	return 4
}

func (c Config) maxQueue() int {
	if c.MaxQueue > 0 {
		return c.MaxQueue
	}
	return DefaultMaxQueue
}

func (c Config) maxQueueWait() time.Duration {
	if c.MaxQueueWait > 0 {
		return c.MaxQueueWait
	}
	return DefaultMaxQueueWait
}

// Shed reasons — a fixed label set, pre-registered at construction so
// every series is on /metrics at 0 before the first shed.
const (
	shedQueueFull = "queue_full" // the admission queue was already full
	shedQueueWait = "queue_wait" // the slot wait exceeded MaxQueueWait
	shedDeadline  = "deadline"   // the request's deadline expired first
)

// overloadError reports one shed admission: which limit tripped and how
// long the client should stay away.
type overloadError struct {
	reason     string
	retryAfter time.Duration
}

func (e *overloadError) Error() string {
	return fmt.Sprintf("overloaded (%s): retry after %v", e.reason, e.retryAfter)
}

// retryAfterSeconds rounds the backoff hint up to whole seconds, as the
// Retry-After header requires, with a floor of 1.
func (e *overloadError) retryAfterSeconds() int {
	s := int((e.retryAfter + time.Second - 1) / time.Second)
	if s < 1 {
		return 1
	}
	return s
}

// writeOverloaded answers a shed request: 429, Retry-After, and the
// "overloaded" error envelope the ops guide documents.
func writeOverloaded(w http.ResponseWriter, err *overloadError) {
	w.Header().Set("Retry-After", strconv.Itoa(err.retryAfterSeconds()))
	wire.WriteError(w, http.StatusTooManyRequests, "%v", err)
}

// admission is the server's load regulator: a fixed pool of concurrency
// slots plus a bounded wait queue. A request that cannot get a slot
// within MaxQueueWait — or whose deadline expires first, or that arrives
// to a full queue — is shed immediately instead of piling up behind a
// slow simulation; under sustained overload the queue length (not the
// latency) absorbs the burst and everything beyond it fails fast. Cache
// hits never come here (see handleRun's brownout fast path), so a
// saturated server still answers warm traffic at full speed.
type admission struct {
	slots    chan struct{} // buffered; a send is a slot acquisition
	queued   atomic.Int64  // requests currently waiting for a slot
	maxQueue int64
	maxWait  time.Duration

	shed map[string]*obs.Counter // by shed reason
	wait *obs.Histogram          // µs from arrival to admission
}

func newAdmission(cfg Config, reg *obs.Registry) *admission {
	a := &admission{
		slots:    make(chan struct{}, cfg.maxConcurrent()),
		maxQueue: int64(cfg.maxQueue()),
		maxWait:  cfg.maxQueueWait(),
		shed: map[string]*obs.Counter{
			shedQueueFull: reg.Counter(`herdd_admission_shed_total{reason="queue_full"}`),
			shedQueueWait: reg.Counter(`herdd_admission_shed_total{reason="queue_wait"}`),
			shedDeadline:  reg.Counter(`herdd_admission_shed_total{reason="deadline"}`),
		},
		wait: reg.Histogram("herdd_admission_wait_us"),
	}
	reg.GaugeFunc("herdd_admission_queue_depth", a.queued.Load)
	reg.GaugeFunc("herdd_admission_slots_in_use", func() int64 { return int64(len(a.slots)) })
	return a
}

// acquire claims a concurrency slot, waiting in the bounded queue when
// none is free. It returns the release function, or an *overloadError
// naming the limit that shed the request. Slot acquisition happens
// strictly before the memo layer's single-flight registration, so every
// in-flight simulation leader holds a slot and followers never deadlock
// behind an un-admitted leader.
func (a *admission) acquire(ctx context.Context) (release func(), err *overloadError) {
	select {
	case a.slots <- struct{}{}:
		a.wait.Observe(0)
		return a.release, nil
	default:
	}
	if a.queued.Add(1) > a.maxQueue {
		a.queued.Add(-1)
		a.shed[shedQueueFull].Inc()
		return nil, &overloadError{reason: shedQueueFull, retryAfter: a.maxWait}
	}
	defer a.queued.Add(-1)
	start := time.Now()
	timer := time.NewTimer(a.maxWait)
	defer timer.Stop()
	select {
	case a.slots <- struct{}{}:
		a.wait.Observe(time.Since(start).Microseconds())
		return a.release, nil
	case <-timer.C:
		a.shed[shedQueueWait].Inc()
		return nil, &overloadError{reason: shedQueueWait, retryAfter: a.maxWait}
	case <-ctx.Done():
		a.shed[shedDeadline].Inc()
		return nil, &overloadError{reason: shedDeadline, retryAfter: a.maxWait}
	}
}

func (a *admission) release() { <-a.slots }

// expired builds the shed verdict for a request that arrived with its
// deadline budget already spent, counting it with the deadline sheds.
func (a *admission) expired() *overloadError {
	a.shed[shedDeadline].Inc()
	return &overloadError{reason: shedDeadline, retryAfter: a.maxWait}
}
