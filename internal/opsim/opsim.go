// Package opsim is the operational simulator of the Tab. IX comparison:
// the stand-in for ppcmem (Sarkar et al. 2011). It decides litmus tests by
// exhaustively exploring the transition system of the intermediate machine
// (Sec. 7) for every candidate data-flow, which reproduces the
// state-explosion cost profile of operational simulation — and, with a
// state bound, the fact that ppcmem could not process about half of the
// paper's tests within its memory budget.
package opsim

import (
	"context"

	"herdcats/internal/cat"
	"herdcats/internal/exec"
	"herdcats/internal/litmus"
	"herdcats/internal/machine"
)

// Result summarises an operational simulation of one test.
type Result struct {
	// Processed is false when the state bound was hit on some candidate
	// (the test counts as unprocessable, like ppcmem running out memory).
	Processed bool
	// States is the total number of machine states explored.
	States int
	// Candidates and Valid count enumerated vs. machine-accepted
	// candidate executions.
	Candidates int
	Valid      int
	// CondObserved reports whether an accepted execution satisfies the
	// test's final condition.
	CondObserved bool
}

// DefaultStateBound is the per-test exploration budget.
const DefaultStateBound = 1 << 17

// Run explores the test operationally under the cat model m, which binds
// the machine's ppo, fence, prop, hb and po-loc-sc (machine.NewModel).
func Run(test *litmus.Test, m *cat.Model, stateBound int) (*Result, error) {
	p, err := exec.Compile(test)
	if err != nil {
		return nil, err
	}
	defer p.Release()
	return RunCompiled(p, m, stateBound)
}

// RunCompiled is Run over a pre-compiled program.
func RunCompiled(p *exec.Program, m *cat.Model, stateBound int) (*Result, error) {
	if stateBound <= 0 {
		stateBound = DefaultStateBound
	}
	md, err := machine.NewModel(m)
	if err != nil {
		return nil, err
	}
	defer md.Release()
	res := &Result{Processed: true}
	var innerErr error
	err = p.Search(context.Background(), exec.Request{}, func(c *exec.Candidate) bool {
		res.Candidates++
		m, err := machine.New(md, c.X)
		if err != nil {
			innerErr = err
			return false
		}
		budget := stateBound - res.States
		if budget <= 0 {
			res.Processed = false
			return false
		}
		// Full exploration, like ppcmem enumerating all outcomes of a test
		// rather than searching for one witness.
		accepted, capped, states := m.ExploreBounded(budget)
		res.States += states
		if capped {
			res.Processed = false
			return false
		}
		if accepted {
			res.Valid++
			if p.Test.Cond == nil || p.Test.Cond.Eval(c.State) {
				res.CondObserved = true
			}
		}
		return true
	})
	if innerErr != nil {
		return nil, innerErr
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}
