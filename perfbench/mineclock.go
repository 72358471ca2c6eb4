package main

import (
	"context"
	"sort"
	"sync"
	"time"

	"herdcats/internal/crosscheck"
	"herdcats/internal/litmus"
)

// decideClock times every Decide of a campaign. crosscheck.ComparePairs
// runs one test's deciders back to back on one goroutine, so the span from
// a test's first Decide start to its last Decide end is that test's
// cross-check latency. With a span recorder it also records one span per
// Decide and keeps the per-decider durations.
type decideClock struct {
	rec *spanRec
	mu  sync.Mutex
	// tests maps each test to its first start and last end.
	tests map[*litmus.Test]*[2]time.Time
	per   map[string][]float64 // decider name → Decide durations (µs), traced only
}

func newDecideClock(rec *spanRec) *decideClock {
	return &decideClock{rec: rec, tests: map[*litmus.Test]*[2]time.Time{}, per: map[string][]float64{}}
}

func (c *decideClock) observe(name string, t *litmus.Test, start, end time.Time) {
	c.mu.Lock()
	if iv, ok := c.tests[t]; ok {
		iv[1] = end
	} else {
		c.tests[t] = &[2]time.Time{start, end}
	}
	if c.rec != nil {
		c.per[name] = append(c.per[name], us(end.Sub(start)))
	}
	c.mu.Unlock()
	c.rec.add(0, 0, "crosscheck.decide."+name, start, end)
}

// testLatencies returns every test's cross-check latency in milliseconds
// and its completion instant, in completion order.
func (c *decideClock) testLatencies() ([]float64, []time.Time) {
	c.mu.Lock()
	ivs := make([][2]time.Time, 0, len(c.tests))
	for _, iv := range c.tests {
		ivs = append(ivs, *iv)
	}
	c.mu.Unlock()
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][1].Before(ivs[j][1]) })
	lat := make([]float64, len(ivs))
	done := make([]time.Time, len(ivs))
	for i, iv := range ivs {
		lat[i], done[i] = ms(iv[1].Sub(iv[0])), iv[1]
	}
	return lat, done
}

// checked returns every test the campaign decided, in the order their
// first Decide started.
func (c *decideClock) checked() []*litmus.Test {
	c.mu.Lock()
	tests := make([]*litmus.Test, 0, len(c.tests))
	for t := range c.tests {
		tests = append(tests, t)
	}
	sort.Slice(tests, func(i, j int) bool { return c.tests[tests[i]][0].Before(c.tests[tests[j]][0]) })
	c.mu.Unlock()
	return tests
}

type clockedDecider struct {
	crosscheck.Decider
	clock *decideClock
}

func (d clockedDecider) Decide(ctx context.Context, t *litmus.Test) (bool, error) {
	start := time.Now()
	ok, err := d.Decider.Decide(ctx, t)
	d.clock.observe(d.Name(), t, start, time.Now())
	return ok, err
}

// clockPairs wraps both sides of every pair; names, and with them the
// pairs' identities and mining keys, are unchanged.
func clockPairs(pairs []crosscheck.Pair, clock *decideClock) []crosscheck.Pair {
	out := make([]crosscheck.Pair, len(pairs))
	for i, p := range pairs {
		p.A = clockedDecider{p.A, clock}
		p.B = clockedDecider{p.B, clock}
		out[i] = p
	}
	return out
}
