// Package fleet is the resilience layer in front of a herdd fleet: a
// retrying HTTP client (Client), a per-backend circuit breaker (Breaker),
// and a consistent-hashing gateway (Gateway, served by cmd/herd-gw) that
// routes verdict keys across backends and ejects unhealthy ones. The
// fault-injection harness that proves the layer's invariants lives in
// fleet/faultproxy.
package fleet

import (
	"sync"
	"time"
)

// BreakerState is the circuit-breaker lifecycle position.
type BreakerState int32

const (
	// BreakerClosed: traffic flows; failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the backend is ejected; requests skip it until the
	// cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: one trial request is probing whether the backend
	// recovered; everything else still skips it.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Breaker is a consecutive-failure circuit breaker guarding one backend.
// Closed → Open after Threshold consecutive failures; Open → HalfOpen
// after Cooldown, admitting exactly one trial; the trial's outcome closes
// the circuit or re-opens it for another cooldown. Both the request path
// and the out-of-band health probes feed Success/Failure, so a backend
// can be ejected by either and recovered by either.
type Breaker struct {
	// Threshold is the consecutive-failure count that opens the circuit
	// (<= 0 selects 3).
	Threshold int
	// Cooldown is how long an open circuit ejects the backend before
	// probing it again (<= 0 selects 5s).
	Cooldown time.Duration

	mu       sync.Mutex
	state    BreakerState
	failures int       // consecutive, while closed
	openedAt time.Time // when the circuit last opened
}

func (b *Breaker) threshold() int {
	if b.Threshold <= 0 {
		return 3
	}
	return b.Threshold
}

func (b *Breaker) cooldown() time.Duration {
	if b.Cooldown <= 0 {
		return 5 * time.Second
	}
	return b.Cooldown
}

// Allow reports whether a request may be sent. An open circuit whose
// cooldown has elapsed flips to half-open and admits the caller as its
// single trial; while the trial is out, further callers are refused.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if time.Since(b.openedAt) >= b.cooldown() {
			b.state = BreakerHalfOpen
			return true
		}
		return false
	default: // BreakerHalfOpen: the one trial is already in flight
		return false
	}
}

// Success records a completed request or probe: it closes the circuit
// (from half-open) and clears the failure streak.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = BreakerClosed
	b.failures = 0
}

// Failure records a failed request or probe: the streak grows, and at
// the threshold — or on a failed half-open trial — the circuit (re)opens.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		b.state = BreakerOpen
		b.openedAt = time.Now()
	case BreakerClosed:
		b.failures++
		if b.failures >= b.threshold() {
			b.state = BreakerOpen
			b.openedAt = time.Now()
		}
	}
}

// State reports the current lifecycle position (for /gw/backends and
// metrics).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
