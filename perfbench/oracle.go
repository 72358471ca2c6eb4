package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"herdcats/internal/campaign"
	"herdcats/internal/litmus"
	"herdcats/internal/models"
	"herdcats/internal/sim"
)

// expect is the reference verdict of one test: sim.Simulate under the
// native models zoo, an implementation independent of the compiled cat
// model herdd serves (crosscheck's Fig. 38 pair pins the two equal).
type expect struct {
	allowed, ok  bool
	cands, valid int
}

// oracle computes the reference verdicts of srcs on nproc goroutines,
// outside any timed region.
func oracle(srcs []string) ([]expect, error) {
	out := make([]expect, len(srcs))
	errs := make([]error, len(srcs))
	var next sync.Mutex
	i := 0
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				k := i
				i++
				next.Unlock()
				if k >= len(srcs) {
					return
				}
				out[k], errs[k] = reference(srcs[k])
			}
		}()
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("oracle: test %d: %w", k, err)
		}
	}
	return out, nil
}

func reference(src string) (expect, error) {
	t, err := litmus.Parse(src)
	if err != nil {
		return expect{}, err
	}
	o, err := sim.Simulate(context.Background(), sim.Request{Test: t, Checker: models.Power})
	if err != nil {
		return expect{}, err
	}
	if o.Incomplete {
		return expect{}, fmt.Errorf("reference simulation incomplete: %v", o.Reason)
	}
	return expect{allowed: o.Allowed(), ok: o.OK(), cands: o.Candidates, valid: o.Valid}, nil
}

// checkRun compares one /v1/run reply with its reference verdict.
func checkRun(r runReply, e expect) error {
	if r.err != nil {
		return r.err
	}
	want := "Forbidden"
	if e.allowed {
		want = "Allowed"
	}
	if r.verdict != want || r.cands != e.cands || r.valid != e.valid {
		return fmt.Errorf("verdict %s %d/%d, reference %s %d/%d",
			r.verdict, r.valid, r.cands, want, e.valid, e.cands)
	}
	return nil
}

// checkRow compares one streamed batch row with its reference verdict.
func checkRow(r row, e expect) error {
	want := campaign.StatusForbidden
	if e.ok {
		want = campaign.StatusOK
	}
	if r.status != want || r.cands != e.cands || r.valid != e.valid {
		return fmt.Errorf("row %s %d/%d, reference %s %d/%d",
			r.status, r.valid, r.cands, want, e.valid, e.cands)
	}
	return nil
}
