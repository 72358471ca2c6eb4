package bmc

import (
	"herdcats/internal/cat"
	"herdcats/internal/events"
	"herdcats/internal/exec"
	"herdcats/internal/litmus"
	"herdcats/internal/sat"
)

// EncodeCat is the encoding of a test under a compiled cat model, for
// tests of models that no ModelID names.
func EncodeCat(test *litmus.Test, model *cat.Compiled) (*Instance, error) {
	prog, err := exec.Compile(test)
	if err != nil {
		return nil, err
	}
	return encode(prog, model)
}

// DecideCat is Decide under a compiled cat model, for tests of models that
// no ModelID names.
func (in *Instance) DecideCat(model *cat.Compiled) (bool, error) { return in.decide(model) }

// newCircuit is a circuit over the solver s for matrices of dimension m,
// outside any instance.
func newCircuit(s *sat.Solver, m int) *circuit {
	c := &circuit{}
	c.start(s, m)
	return c
}

// Skeleton is the assembled skeleton the instance lowers its models onto.
func (in *Instance) Skeleton() *events.Skeleton { return in.asm.X }
