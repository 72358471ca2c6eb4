// Package crosscheck compares the repository's independent deciders — the
// axiomatic simulator (internal/sim over the compiled cat models), the
// operational machine (internal/machine, Thm. 7.1), the multi-event
// checker (internal/multi), the SAT-based model checker (internal/bmc) and
// the simulated hardware (internal/hardware) — on the whole-test
// "allowed/forbidden" verdict, the unit of the paper's data-mining tables
// (Tab. IX–XII). The hand-written zoo (internal/models) decides only as
// the oracle of one native-vs-cat pair per weak dialect.
//
// The paper grounds which pairs are *expected* to relate, and how:
//
//   - equality where two implementations realise the same mathematical
//     object (Thm. 7.1 for the machine, Fig. 38 for the cat model, the
//     SAT encoding for bmc);
//   - inclusion where one model is provably stronger (the CAV12
//     multi-event ppo is a superset of Power's; SC-valid executions stay
//     valid under weaker models; sound hardware observes a subset of what
//     its model allows, Sec. 8.1.1).
//
// A violated expectation is therefore a real bug in one of the engines,
// not noise — which is what makes differential mining (internal/mine) a
// soundness net rather than a fuzzer.
package crosscheck

import (
	"context"
	"fmt"
	"slices"

	"herdcats/internal/litmus"
)

// Relation is the agreement a pair of deciders is expected to satisfy.
type Relation uint8

const (
	// Equal: both deciders must return the same verdict on every test.
	Equal Relation = iota
	// Subset: a test allowed by A must be allowed by B (A's behaviours
	// are included in B's). The converse direction is unconstrained.
	Subset
)

func (r Relation) String() string {
	if r == Subset {
		return "subset"
	}
	return "equal"
}

// Pair is one expected-agreement entry: deciders A and B related by Rel,
// with the paper's ground for the expectation in Why.
type Pair struct {
	A, B Decider
	Rel  Relation
	Why  string
}

// String renders the pair's identity, e.g. "cat:SC==bmc:SC" or
// "cat:Power multi-event (CAV12)<=cat:Power". It is the pair's stable
// name in metrics, store records and discrepancy reports.
func (p Pair) String() string {
	op := "=="
	if p.Rel == Subset {
		op = "<="
	}
	return p.A.Name() + op + p.B.Name()
}

// Violated reports whether the verdicts a (from A) and b (from B) break
// the pair's expected relation.
func (p Pair) Violated(a, b bool) bool {
	if p.Rel == Subset {
		return a && !b
	}
	return a != b
}

// Verdict is one decider's answer on one test.
type Verdict struct {
	Decider string `json:"decider"`
	Allowed bool   `json:"allowed"`
	Err     string `json:"error,omitempty"`
}

// Disagreement records one violated pair expectation.
type Disagreement struct {
	Pair string  `json:"pair"`
	Rel  string  `json:"relation"`
	A    Verdict `json:"a"`
	B    Verdict `json:"b"`
	Why  string  `json:"why,omitempty"`
}

func (d Disagreement) String() string {
	return fmt.Sprintf("%s violated: %s=%v, %s=%v",
		d.Pair, d.A.Decider, d.A.Allowed, d.B.Decider, d.B.Allowed)
}

// Report is the outcome of comparing one test across a set of pairs.
type Report struct {
	Test string `json:"test"`

	// Verdicts holds each distinct decider's answer, sorted by decider
	// name. A decider shared by several pairs is run exactly once.
	Verdicts []Verdict `json:"verdicts"`

	// Pairs counts the pair expectations actually evaluated (both sides
	// decided without error).
	Pairs int `json:"pairs"`

	// Agreements counts evaluated pairs that satisfied their relation;
	// Disagreements lists the ones that violated it.
	Agreements    int            `json:"agreements"`
	Disagreements []Disagreement `json:"disagreements,omitempty"`

	// Errors lists deciders that failed (their pairs are not evaluated);
	// an infrastructure failure is kept distinct from a disagreement.
	Errors []Verdict `json:"errors,omitempty"`
}

// Agreed reports whether every evaluated pair satisfied its relation and
// no decider failed.
func (r *Report) Agreed() bool {
	return len(r.Disagreements) == 0 && len(r.Errors) == 0
}

// ComparePairs runs every decider referenced by the pairs (once each, keyed
// by Name) on the test and evaluates each pair's expected relation. Decider
// errors never fail the comparison: the errored decider is reported under
// Errors and its pairs are skipped. The returned error is non-nil only when
// ctx was canceled before the comparison finished.
//
// The deciders share one scope, attached to ctx: one compiled test, whose
// thread traces and skeletons, which no model changes, are enumerated once
// for all of them, and one SAT instance. First the deciders that judge
// candidates (the axiomatic checkers, the machine and the hardware, but
// not a wrapper around one) are decided together over one walk of its
// candidates, which keeps the trace sets. Then the bmc deciders share the
// instance, whose model-free part the first of them encodes. When the
// comparison returns, the scope is released, so the storage of both
// serves the next comparison: a decider that uses ctx after its Decide
// returns gets an error (DESIGN.md §18.1).
func ComparePairs(ctx context.Context, test *litmus.Test, pairs ...Pair) (*Report, error) {
	ctx, release := withScope(ctx, test)
	defer release()
	rep := &Report{Test: test.Name}
	var names []string
	var walkers []walker
	var others []Decider
	for _, p := range pairs {
		for _, d := range []Decider{p.A, p.B} {
			if slices.Contains(names, d.Name()) {
				continue
			}
			names = append(names, d.Name())
			if w, ok := d.(walker); ok {
				walkers = append(walkers, w)
			} else {
				others = append(others, d)
			}
		}
	}
	verdicts := map[string]Verdict{}
	allowed, errs := walk(ctx, test, walkers)
	for i, w := range walkers {
		verdicts[w.Name()] = verdict(w.Name(), allowed[i], errs[i])
	}
	for _, d := range others {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		allowed, err := d.Decide(ctx, test)
		verdicts[d.Name()] = verdict(d.Name(), allowed, err)
	}
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	for _, p := range pairs {
		a, b := verdicts[p.A.Name()], verdicts[p.B.Name()]
		if a.Err != "" || b.Err != "" {
			continue
		}
		rep.Pairs++
		if p.Violated(a.Allowed, b.Allowed) {
			rep.Disagreements = append(rep.Disagreements, Disagreement{
				Pair: p.String(), Rel: p.Rel.String(), A: a, B: b, Why: p.Why,
			})
		} else {
			rep.Agreements++
		}
	}
	slices.Sort(names)
	for _, n := range names {
		v := verdicts[n]
		if v.Err != "" {
			rep.Errors = append(rep.Errors, v)
		}
		rep.Verdicts = append(rep.Verdicts, v)
	}
	return rep, nil
}

// verdict is the Verdict of the named decider's answer.
func verdict(name string, allowed bool, err error) Verdict {
	if err != nil {
		return Verdict{Decider: name, Err: err.Error()}
	}
	return Verdict{Decider: name, Allowed: allowed}
}

// Compare is ComparePairs over the all-pairs equality closure of the given
// deciders: every two of them are expected to agree exactly. Use it when
// the deciders are known implementations of one model; use ComparePairs
// with an expected-agreement table (Pairs) when relations differ.
func Compare(ctx context.Context, test *litmus.Test, deciders ...Decider) (*Report, error) {
	var pairs []Pair
	for i := 0; i < len(deciders); i++ {
		for j := i + 1; j < len(deciders); j++ {
			pairs = append(pairs, Pair{A: deciders[i], B: deciders[j], Rel: Equal})
		}
	}
	return ComparePairs(ctx, test, pairs...)
}
