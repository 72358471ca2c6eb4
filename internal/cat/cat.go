package cat

import (
	"crypto/sha256"
	"fmt"
	"sync"

	"herdcats/internal/core"
	"herdcats/internal/events"
	"herdcats/internal/rel"
)

// --- AST ---------------------------------------------------------------

type expr interface{}

type eIdent struct{ name string }

type eZero struct{}

type eBin struct {
	op   byte // '|', '&', ';', '\'
	l, r expr
}

type ePost struct {
	op byte // '+', '*', '?'
	x  expr
}

type eCompl struct{ x expr }

type eRestrict struct {
	dirs string // e.g. "RR", "WM"
	x    expr
}

type bind struct {
	name string
	e    expr
}

type stmt interface{}

type sLet struct {
	rec   bool
	binds []bind
}

type checkKind uint8

const (
	checkAcyclic checkKind = iota
	checkIrreflexive
	checkReflexive
	checkEmpty
)

func (k checkKind) String() string {
	switch k {
	case checkAcyclic:
		return "acyclic"
	case checkIrreflexive:
		return "irreflexive"
	case checkReflexive:
		return "reflexive"
	case checkEmpty:
		return "empty"
	}
	return "?"
}

type sCheck struct {
	kind checkKind
	e    expr
	name string
}

// Model is a parsed cat model; it implements the simulator's Checker by
// interpreting the AST, and core.EvaluatorProvider by lowering itself once
// (see compile.go) into the allocation-free compiled form.
type Model struct {
	name  string
	fp    string // sha256 of the source, the model's content identity
	stmts []stmt

	compileOnce sync.Once
	compiled    *Compiled
	compileErr  error
}

// Name returns the model's declared name.
func (m *Model) Name() string { return m.name }

// Fingerprint returns the hex SHA-256 of the model's source text. Two
// models compiled from byte-identical sources share a fingerprint even if
// they declare the same name, so caches (internal/memo) can use it as the
// model's identity instead of the ambiguous declared name.
func (m *Model) Fingerprint() string { return m.fp }

// --- Parser ------------------------------------------------------------

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}
func (p *parser) at(k tokKind) bool {
	return p.peek().kind == k
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("cat: line %d: %s", p.peek().line, fmt.Sprintf(format, args...))
}

// Compile parses and validates a cat model source.
func Compile(src string) (*Model, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	m := &Model{name: "cat-model", fp: fmt.Sprintf("%x", sha256.Sum256([]byte(src)))}

	// Optional leading model name: a bare identifier or string on its own.
	if p.at(tokString) {
		m.name = p.next().text
	} else if p.at(tokIdent) && p.toks[p.pos+1].kind != tokEquals {
		// A leading bare identifier (not part of a definition) names the model.
		m.name = p.next().text
	}

	checkIdx := 0
	for !p.at(tokEOF) {
		switch p.peek().kind {
		case tokLet:
			st, err := p.parseLet()
			if err != nil {
				return nil, err
			}
			m.stmts = append(m.stmts, st)
		case tokAcyclic, tokIrreflexive, tokReflexive, tokEmpty:
			st, err := p.parseCheck(&checkIdx)
			if err != nil {
				return nil, err
			}
			m.stmts = append(m.stmts, st)
		case tokShow:
			// "show e (as name)?" — display directive; parse and discard.
			p.next()
			if _, err := p.parseExpr(); err != nil {
				return nil, err
			}
			if p.at(tokAs) {
				p.next()
				if !p.at(tokIdent) {
					return nil, p.errf("expected name after 'as'")
				}
				p.next()
			}
		default:
			return nil, p.errf("unexpected token %q", p.peek().text)
		}
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// MustCompile is Compile panicking on error, for embedded model sources.
func MustCompile(src string) *Model {
	m, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return m
}

func (p *parser) parseLet() (stmt, error) {
	p.next() // let
	st := sLet{}
	if p.at(tokRec) {
		p.next()
		st.rec = true
	}
	for {
		if !p.at(tokIdent) {
			return nil, p.errf("expected binding name, got %q", p.peek().text)
		}
		name := p.next().text
		if !p.at(tokEquals) {
			return nil, p.errf("expected '=' after %q", name)
		}
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.binds = append(st.binds, bind{name: name, e: e})
		if st.rec && p.at(tokAnd) {
			p.next()
			continue
		}
		break
	}
	return st, nil
}

func (p *parser) parseCheck(idx *int) (stmt, error) {
	var kind checkKind
	switch p.next().kind {
	case tokAcyclic:
		kind = checkAcyclic
	case tokIrreflexive:
		kind = checkIrreflexive
	case tokReflexive:
		kind = checkReflexive
	case tokEmpty:
		kind = checkEmpty
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("%s-check-%d", kind, *idx)
	*idx++
	if p.at(tokAs) {
		p.next()
		if !p.at(tokIdent) {
			return nil, p.errf("expected check name after 'as'")
		}
		name = p.next().text
	}
	return sCheck{kind: kind, e: e, name: name}, nil
}

// Expression grammar, loosest to tightest (herd's precedence):
//
//	union  := seq   ('|' seq)*
//	seq    := diff  (';' diff)*
//	diff   := inter ('\' inter)*
//	inter  := post  ('&' post)*
//	post   := atom ('+' | '*' | '?')*
//	atom   := '0' | '~' atom | ident | DIRS '(' union ')' | '(' union ')'
func (p *parser) parseExpr() (expr, error) { return p.parseUnion() }

func (p *parser) parseUnion() (expr, error) {
	l, err := p.parseSeq()
	if err != nil {
		return nil, err
	}
	for p.at(tokBar) {
		p.next()
		r, err := p.parseSeq()
		if err != nil {
			return nil, err
		}
		l = eBin{'|', l, r}
	}
	return l, nil
}

func (p *parser) parseSeq() (expr, error) {
	l, err := p.parseDiff()
	if err != nil {
		return nil, err
	}
	for p.at(tokSemi) {
		p.next()
		r, err := p.parseDiff()
		if err != nil {
			return nil, err
		}
		l = eBin{';', l, r}
	}
	return l, nil
}

func (p *parser) parseDiff() (expr, error) {
	l, err := p.parseInter()
	if err != nil {
		return nil, err
	}
	for p.at(tokBackslash) {
		p.next()
		r, err := p.parseInter()
		if err != nil {
			return nil, err
		}
		l = eBin{'\\', l, r}
	}
	return l, nil
}

func (p *parser) parseInter() (expr, error) {
	l, err := p.parsePost()
	if err != nil {
		return nil, err
	}
	for p.at(tokAmp) {
		p.next()
		r, err := p.parsePost()
		if err != nil {
			return nil, err
		}
		l = eBin{'&', l, r}
	}
	return l, nil
}

func (p *parser) parsePost() (expr, error) {
	x, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for {
		switch p.peek().kind {
		case tokPlus:
			p.next()
			x = ePost{'+', x}
		case tokStar:
			p.next()
			x = ePost{'*', x}
		case tokQuestion:
			p.next()
			x = ePost{'?', x}
		default:
			return x, nil
		}
	}
}

var restrictors = map[string]bool{
	"RR": true, "RW": true, "RM": true,
	"WR": true, "WW": true, "WM": true,
	"MR": true, "MW": true, "MM": true,
}

func (p *parser) parseAtom() (expr, error) {
	switch p.peek().kind {
	case tokZero:
		p.next()
		return eZero{}, nil
	case tokTilde:
		p.next()
		x, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		return eCompl{x}, nil
	case tokLParen:
		p.next()
		x, err := p.parseUnion()
		if err != nil {
			return nil, err
		}
		if !p.at(tokRParen) {
			return nil, p.errf("expected ')'")
		}
		p.next()
		return x, nil
	case tokIdent:
		name := p.next().text
		if restrictors[name] && p.at(tokLParen) {
			p.next()
			x, err := p.parseUnion()
			if err != nil {
				return nil, err
			}
			if !p.at(tokRParen) {
				return nil, p.errf("expected ')' after %s(...", name)
			}
			p.next()
			return eRestrict{dirs: name, x: x}, nil
		}
		return eIdent{name}, nil
	}
	return nil, p.errf("unexpected token %q in expression", p.peek().text)
}

// --- Validation ----------------------------------------------------------

// builtinNames are the relations the evaluator provides.
var builtinNames = map[string]bool{
	"po": true, "po-loc": true, "id": true,
	"rf": true, "rfe": true, "rfi": true, "sw": true,
	"co": true, "coe": true, "coi": true,
	"fr": true, "fre": true, "fri": true,
	"com":  true,
	"addr": true, "data": true, "ctrl": true,
	"ctrlisync": true, "ctrlisb": true, "ctrlcfence": true,
	"sync": true, "lwsync": true, "eieio": true, "isync": true,
	"dmb": true, "dsb": true, "dmb.st": true, "dsb.st": true, "isb": true,
	"mfence": true,
}

func (m *Model) validate() error {
	defined := map[string]bool{}
	var checkExpr func(e expr, local map[string]bool) error
	checkExpr = func(e expr, local map[string]bool) error {
		switch e := e.(type) {
		case eIdent:
			if !builtinNames[e.name] && !defined[e.name] && !local[e.name] {
				return fmt.Errorf("cat: undefined relation %q", e.name)
			}
		case eBin:
			if err := checkExpr(e.l, local); err != nil {
				return err
			}
			return checkExpr(e.r, local)
		case ePost:
			return checkExpr(e.x, local)
		case eCompl:
			return checkExpr(e.x, local)
		case eRestrict:
			return checkExpr(e.x, local)
		}
		return nil
	}
	for _, st := range m.stmts {
		switch st := st.(type) {
		case sLet:
			local := map[string]bool{}
			if st.rec {
				for _, b := range st.binds {
					local[b.name] = true
				}
			}
			for _, b := range st.binds {
				if err := checkExpr(b.e, local); err != nil {
					return err
				}
			}
			for _, b := range st.binds {
				defined[b.name] = true
			}
		case sCheck:
			if err := checkExpr(st.e, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// --- Evaluation ----------------------------------------------------------

type env struct {
	x    *events.Execution
	defs map[string]rel.Rel
}

func (e *env) lookup(name string) (rel.Rel, bool) {
	if r, ok := e.defs[name]; ok {
		return r, true
	}
	switch name { // the dynamic builtins, resolved apart from the compiled path's dynRel
	case "rf":
		return e.x.MemRF(), true
	case "rfe":
		return e.x.RFE, true
	case "rfi":
		return e.x.RFI, true
	case "sw":
		return e.x.SW, true
	case "co":
		return e.x.CO, true
	case "coe":
		return e.x.COE, true
	case "coi":
		return e.x.COI, true
	case "fr":
		return e.x.FR, true
	case "fre":
		return e.x.FRE, true
	case "fri":
		return e.x.FRI, true
	case "com":
		return e.x.Com, true
	}
	return staticRel(e.x.Skeleton, name)
}

// staticRel resolves a static builtin against a derived skeleton. The
// relation it returns is the skeleton's, shared with every reader, or one
// the caller owns (id, and a control fence the skeleton has no relation
// for).
func staticRel(x *events.Skeleton, name string) (rel.Rel, bool) {
	switch name {
	case "po":
		return x.MemPO, true
	case "po-loc":
		return x.POLoc, true
	case "id":
		idFull := rel.New(x.N())
		for _, m := range x.M.Elems() {
			idFull.Add(m, m)
		}
		return idFull, true
	case "addr":
		return x.Addr, true
	case "data":
		return x.Data, true
	case "ctrl":
		return x.Ctrl, true
	case "ctrlisync":
		return ctrlCfence(x, events.FenceIsync), true
	case "ctrlisb":
		return ctrlCfence(x, events.FenceISB), true
	case "ctrlcfence":
		return x.CtrlCfenceAll(), true
	case "sync":
		return x.Fences(events.FenceSync), true
	case "lwsync":
		return x.Fences(events.FenceLwsync), true
	case "eieio":
		return x.Fences(events.FenceEieio), true
	case "isync":
		return x.Fences(events.FenceIsync), true
	case "dmb":
		return x.Fences(events.FenceDMB), true
	case "dsb":
		return x.Fences(events.FenceDSB), true
	case "dmb.st":
		return x.Fences(events.FenceDMBST), true
	case "dsb.st":
		return x.Fences(events.FenceDSBST), true
	case "isb":
		return x.Fences(events.FenceISB), true
	case "mfence":
		return x.Fences(events.FenceMFence), true
	}
	return rel.Rel{}, false
}

func ctrlCfence(x *events.Skeleton, kind events.FenceKind) rel.Rel {
	if r, ok := x.CtrlCfence[kind]; ok {
		return r
	}
	return rel.New(x.N())
}

func (e *env) eval(ex expr) rel.Rel {
	switch ex := ex.(type) {
	case eZero:
		return rel.New(e.x.N())
	case eIdent:
		r, ok := e.lookup(ex.name)
		if !ok {
			// validate() rejects unknown names at compile time.
			panic(fmt.Sprintf("cat: unbound relation %q", ex.name))
		}
		return r
	case eBin:
		l := e.eval(ex.l)
		r := e.eval(ex.r)
		switch ex.op {
		case '|':
			return l.Union(r)
		case '&':
			return l.Inter(r)
		case ';':
			return l.Seq(r)
		case '\\':
			return l.Diff(r)
		}
	case ePost:
		x := e.eval(ex.x)
		switch ex.op {
		case '+':
			return x.Plus()
		case '*':
			return x.Star()
		case '?':
			return x.Opt()
		}
	case eCompl:
		return e.eval(ex.x).Complement()
	case eRestrict:
		x := e.eval(ex.x)
		src := e.dirSet(ex.dirs[0])
		dst := e.dirSet(ex.dirs[1])
		return x.Restrict(src, dst)
	}
	panic(fmt.Sprintf("cat: unhandled expression %T", ex))
}

func (e *env) dirSet(d byte) rel.Set {
	switch d {
	case 'R':
		return e.x.R
	case 'W':
		return e.x.W
	case 'M':
		return e.x.M
	}
	panic(fmt.Sprintf("cat: bad direction %c", d))
}

// maxFixpointIters bounds let-rec evaluation; the Power ppo of Fig. 38
// stabilises in a handful of rounds on litmus-sized executions.
const maxFixpointIters = 10000

// evalLet evaluates one let statement into the environment. Recursive
// bindings use Kleene iteration from the empty relation: all cat operators
// used in recursive definitions are monotone.
func (e *env) evalLet(st sLet) {
	if !st.rec {
		for _, b := range st.binds {
			e.defs[b.name] = e.eval(b.e)
		}
		return
	}
	for _, b := range st.binds {
		e.defs[b.name] = rel.New(e.x.N())
	}
	for iter := 0; ; iter++ {
		if iter > maxFixpointIters {
			panic("cat: let rec did not converge")
		}
		stable := true
		for _, b := range st.binds {
			next := e.eval(b.e)
			if !next.Equal(e.defs[b.name]) {
				stable = false
				e.defs[b.name] = next
			}
		}
		if stable {
			return
		}
	}
}

// Check implements the simulator's Checker interface: it evaluates the
// model's definitions over the execution and applies every check. A model
// that fails to evaluate — a let rec that never converges — is reported as
// Result.Err rather than a panic, so a bad model registered with a running
// daemon poisons one request, not the serving goroutine.
func (m *Model) Check(x *events.Execution) (res core.Result) {
	defer func() {
		if r := recover(); r != nil {
			res = core.Result{Err: fmt.Errorf("cat: model %q evaluation failed: %v", m.name, r)}
		}
	}()
	e := &env{x: x, defs: map[string]rel.Rel{}}
	var failed []string
	for _, st := range m.stmts {
		switch st := st.(type) {
		case sLet:
			e.evalLet(st)
		case sCheck:
			r := e.eval(st.e)
			ok := false
			switch st.kind {
			case checkAcyclic:
				ok = r.Acyclic()
			case checkIrreflexive:
				ok = r.Irreflexive()
			case checkReflexive:
				ok = r.Reflexive()
			case checkEmpty:
				ok = r.IsEmpty()
			}
			if !ok {
				failed = append(failed, st.name)
			}
		}
	}
	return core.Result{Valid: len(failed) == 0, FailedChecks: failed}
}

// CheckViolation is one failed cat check with a witness cycle (or the
// reflexive point, for irreflexivity checks).
type CheckViolation struct {
	Check   string
	Kind    string // "acyclic", "irreflexive", "reflexive", "empty"
	Witness []int  // event IDs; empty for failed reflexive checks
}

// Explain evaluates the model and returns a witness for each failed check —
// the cycle herd shows when explaining why a behaviour is forbidden. Like
// Check, evaluation failure surfaces as an error, never a panic.
func (m *Model) Explain(x *events.Execution) (out []CheckViolation, err error) {
	defer func() {
		if r := recover(); r != nil {
			out = nil
			err = fmt.Errorf("cat: model %q evaluation failed: %v", m.name, r)
		}
	}()
	e := &env{x: x, defs: map[string]rel.Rel{}}
	for _, st := range m.stmts {
		switch st := st.(type) {
		case sLet:
			e.evalLet(st)
		case sCheck:
			r := e.eval(st.e)
			switch st.kind {
			case checkAcyclic:
				if w := r.CycleWitness(); w != nil {
					out = append(out, CheckViolation{Check: st.name, Kind: "acyclic", Witness: w})
				}
			case checkIrreflexive:
				for i := 0; i < x.N(); i++ {
					if r.Has(i, i) {
						out = append(out, CheckViolation{Check: st.name, Kind: "irreflexive", Witness: []int{i}})
						break
					}
				}
			case checkReflexive:
				if !r.Reflexive() {
					out = append(out, CheckViolation{Check: st.name, Kind: "reflexive"})
				}
			case checkEmpty:
				if !r.IsEmpty() {
					p := r.Pairs()[0]
					out = append(out, CheckViolation{Check: st.name, Kind: "empty", Witness: []int{p[0], p[1]}})
				}
			}
		}
	}
	return out, nil
}
