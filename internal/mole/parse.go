package mole

import (
	"fmt"

	"herdcats/internal/events"
)

// OpKind classifies the operations extracted from a function body.
type OpKind uint8

// Operation kinds.
const (
	OpRead OpKind = iota
	OpWrite
	OpFence
	OpCall
	OpSpawn
)

// Op is one operation of a function, in syntactic order (the analysis is
// flow-insensitive: branches and loop bodies contribute their operations
// in place, an over-approximation of all paths).
type Op struct {
	Kind OpKind
	// Obj is the accessed object for direct accesses, or the pointer name
	// for dereferences (Deref true); resolved to objects by points-to.
	Obj   string
	Deref bool
	// AddrDep names the shared object whose read supplied this access's
	// address (the rcu_dereference idiom), if any.
	AddrDep string
	Fence   events.FenceKind
	Callee  string
	Line    int
}

// Function is one parsed function.
type Function struct {
	Name   string
	Params []string
	Ops    []Op
	// Spawns lists pthread_create targets seen in the body.
	Spawns []string
	// Calls lists ordinary callees.
	Calls []string
}

// assign is a points-to constraint from "dst = src".
type assign struct {
	dstName  string
	dstDeref bool
	// src forms: addr-of (srcAddr), copy (srcName), load (srcDeref).
	srcAddr  string
	srcName  string
	srcDeref string
}

// Program is a parsed translation unit (or a set of them).
type Program struct {
	Globals   map[string]bool
	Functions map[string]*Function
	Assigns   []assign
	// PtrLoads records "p = g" where g is a global holding an address:
	// later derefs of p carry an address dependency on g.
	PtrLoads map[string]string
}

// NewProgram returns an empty program; Add parses translation units into it.
func NewProgram() *Program {
	return &Program{
		Globals:   map[string]bool{},
		Functions: map[string]*Function{},
		PtrLoads:  map[string]string{},
	}
}

// typeKeywords start declarations.
var typeKeywords = map[string]bool{
	"int": true, "void": true, "long": true, "char": true, "unsigned": true,
	"short": true, "volatile": true, "static": true, "struct": true,
	"pthread_t": true, "spinlock_t": true, "size_t": true, "extern": true,
}

// fenceCalls map fence-like function names to barrier flavours.
var fenceCalls = map[string]events.FenceKind{
	"lwsync": events.FenceLwsync, "sync": events.FenceSync,
	"isync": events.FenceIsync, "eieio": events.FenceEieio,
	"smp_mb": events.FenceSync, "smp_wmb": events.FenceLwsync,
	"smp_rmb": events.FenceLwsync, "mb": events.FenceSync,
	"dmb": events.FenceDMB, "dsb": events.FenceDSB, "isb": events.FenceISB,
	"mfence":             events.FenceMFence,
	"__sync_synchronize": events.FenceSync,
}

// ignoredCalls are concurrency API calls that produce no accesses (the
// paper's analysis "does not take into account program logic, e.g. locks").
var ignoredCalls = map[string]bool{
	"pthread_mutex_lock": true, "pthread_mutex_unlock": true,
	"spin_lock": true, "spin_unlock": true,
	"pthread_join": true, "pthread_exit": true,
	"rcu_read_lock": true, "rcu_read_unlock": true, "synchronize_rcu": true,
	"assert": true, "printf": true, "free": true, "exit": true,
}

// Add parses one translation unit into the program.
func (p *Program) Add(src string) error {
	toks, err := clex(src)
	if err != nil {
		return err
	}
	cp := &cparser{prog: p, toks: toks}
	return cp.file()
}

type cparser struct {
	prog *Program
	toks []ctok
	pos  int
	fn   *Function // current function
}

func (c *cparser) peek() ctok { return c.toks[c.pos] }
func (c *cparser) next() ctok {
	t := c.toks[c.pos]
	if t.kind != ctokEOF {
		c.pos++
	}
	return t
}
func (c *cparser) atPunct(s string) bool {
	t := c.peek()
	return t.kind == ctokPunct && t.text == s
}
func (c *cparser) eatPunct(s string) bool {
	if c.atPunct(s) {
		c.pos++
		return true
	}
	return false
}
func (c *cparser) expectPunct(s string) error {
	if !c.eatPunct(s) {
		return c.errf("expected %q, got %q", s, c.peek().text)
	}
	return nil
}
func (c *cparser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("mole: line %d: %s", c.peek().line, fmt.Sprintf(format, args...))
}

// file parses declarations and function definitions.
func (c *cparser) file() error {
	for c.peek().kind != ctokEOF {
		if err := c.topLevel(); err != nil {
			return err
		}
	}
	return nil
}

// skipType consumes type keywords, struct tags and '*'s.
func (c *cparser) skipType() {
	for {
		t := c.peek()
		if t.kind == ctokIdent && typeKeywords[t.text] {
			c.next()
			if t.text == "struct" && c.peek().kind == ctokIdent {
				c.next() // struct tag
			}
			continue
		}
		if c.atPunct("*") {
			c.next()
			continue
		}
		return
	}
}

func (c *cparser) topLevel() error {
	if c.peek().kind != ctokIdent || !typeKeywords[c.peek().text] {
		return c.errf("expected declaration, got %q", c.peek().text)
	}
	c.skipType()
	if c.peek().kind != ctokIdent {
		return c.errf("expected name after type, got %q", c.peek().text)
	}
	name := c.next().text
	if c.atPunct("(") {
		return c.funcDef(name)
	}
	// Global variable(s), possibly initialised.
	c.prog.Globals[name] = true
	for {
		if c.eatPunct("=") {
			if err := c.initExpr(name); err != nil {
				return err
			}
		}
		if c.eatPunct(",") {
			c.skipType()
			if c.peek().kind != ctokIdent {
				return c.errf("expected name in declaration list")
			}
			name = c.next().text
			c.prog.Globals[name] = true
			continue
		}
		break
	}
	return c.expectPunct(";")
}

// initExpr parses a global initialiser (constant or &x).
func (c *cparser) initExpr(dst string) error {
	if c.eatPunct("&") {
		if c.peek().kind != ctokIdent {
			return c.errf("expected name after '&'")
		}
		c.prog.Assigns = append(c.prog.Assigns, assign{dstName: dst, srcAddr: c.next().text})
		return nil
	}
	// Skip a constant or identifier initialiser.
	t := c.next()
	if t.kind != ctokInt && t.kind != ctokIdent && t.kind != ctokString {
		return c.errf("unsupported initialiser %q", t.text)
	}
	if t.kind == ctokIdent {
		c.prog.Assigns = append(c.prog.Assigns, assign{dstName: dst, srcName: t.text})
	}
	return nil
}

func (c *cparser) funcDef(name string) error {
	fn := &Function{Name: name}
	c.fn = fn
	if err := c.expectPunct("("); err != nil {
		return err
	}
	for !c.atPunct(")") {
		c.skipType()
		if c.peek().kind == ctokIdent {
			fn.Params = append(fn.Params, c.next().text)
		}
		if !c.eatPunct(",") {
			break
		}
	}
	if err := c.expectPunct(")"); err != nil {
		return err
	}
	if c.eatPunct(";") {
		// Prototype: record the (empty) function so calls resolve.
		if _, ok := c.prog.Functions[name]; !ok {
			c.prog.Functions[name] = fn
		}
		c.fn = nil
		return nil
	}
	if err := c.block(); err != nil {
		return err
	}
	c.prog.Functions[name] = fn
	c.fn = nil
	return nil
}

func (c *cparser) block() error {
	if err := c.expectPunct("{"); err != nil {
		return err
	}
	for !c.atPunct("}") {
		if c.peek().kind == ctokEOF {
			return c.errf("unterminated block")
		}
		if err := c.stmt(); err != nil {
			return err
		}
	}
	return c.expectPunct("}")
}

func (c *cparser) stmt() error {
	t := c.peek()
	switch {
	case t.kind == ctokPunct && t.text == "{":
		return c.block()
	case t.kind == ctokIdent && (t.text == "if" || t.text == "while"):
		c.next()
		if err := c.expectPunct("("); err != nil {
			return err
		}
		if err := c.expr(); err != nil {
			return err
		}
		if err := c.expectPunct(")"); err != nil {
			return err
		}
		if err := c.stmtOrBlock(); err != nil {
			return err
		}
		if c.peek().kind == ctokIdent && c.peek().text == "else" {
			c.next()
			return c.stmtOrBlock()
		}
		return nil
	case t.kind == ctokIdent && t.text == "for":
		c.next()
		if err := c.expectPunct("("); err != nil {
			return err
		}
		// for(init; cond; post): three expression slots, any may be empty.
		for part := 0; part < 3; part++ {
			if !c.atPunct(";") && !c.atPunct(")") {
				if err := c.simpleStmtBody(); err != nil {
					return err
				}
			}
			if part < 2 {
				if err := c.expectPunct(";"); err != nil {
					return err
				}
			}
		}
		if err := c.expectPunct(")"); err != nil {
			return err
		}
		return c.stmtOrBlock()
	case t.kind == ctokIdent && t.text == "return":
		c.next()
		if !c.atPunct(";") {
			if err := c.expr(); err != nil {
				return err
			}
		}
		return c.expectPunct(";")
	case t.kind == ctokIdent && typeKeywords[t.text]:
		// Local declaration: "int x = e;"
		c.skipType()
		if c.peek().kind != ctokIdent {
			return c.errf("expected local name")
		}
		name := c.localName(c.next().text)
		if c.eatPunct("=") {
			if err := c.assignTo(name, false); err != nil {
				return err
			}
		}
		return c.expectPunct(";")
	case t.kind == ctokPunct && t.text == ";":
		c.next()
		return nil
	default:
		if err := c.simpleStmtBody(); err != nil {
			return err
		}
		return c.expectPunct(";")
	}
}

func (c *cparser) stmtOrBlock() error {
	if c.atPunct("{") {
		return c.block()
	}
	return c.stmt()
}

// simpleStmtBody parses an assignment, a call, or an increment, without
// the trailing semicolon.
func (c *cparser) simpleStmtBody() error {
	deref := false
	for c.eatPunct("*") {
		deref = true
	}
	if c.peek().kind != ctokIdent {
		return c.errf("expected statement, got %q", c.peek().text)
	}
	name := c.next().text
	switch {
	case c.atPunct("("):
		return c.callRest(name)
	case c.eatPunct("++") || c.eatPunct("--"):
		c.access(OpRead, name, deref)
		c.access(OpWrite, name, deref)
		return nil
	case c.eatPunct("+=") || c.eatPunct("-="):
		c.access(OpRead, name, deref)
		if err := c.expr(); err != nil {
			return err
		}
		c.access(OpWrite, name, deref)
		return nil
	case c.eatPunct("="):
		return c.assignTo(c.resolveName(name), deref)
	default:
		return c.errf("unsupported statement at %q", name)
	}
}

// localName qualifies a local with the current function.
func (c *cparser) localName(n string) string {
	return c.fn.Name + "::" + n
}

// resolveName maps an identifier to a global or the current function's
// local/param namespace.
func (c *cparser) resolveName(n string) string {
	if c.prog.Globals[n] {
		return n
	}
	if c.fn != nil {
		for _, p := range c.fn.Params {
			if p == n {
				return c.localName(n)
			}
		}
		return c.localName(n)
	}
	return n
}

// isShared reports whether an object name denotes static storage.
func (c *cparser) isShared(n string) bool { return c.prog.Globals[n] }

// access records a memory access op (shared objects and pointer derefs;
// plain locals are invisible to the memory system).
func (c *cparser) access(kind OpKind, name string, deref bool) {
	if c.fn == nil {
		return
	}
	resolved := c.resolveName(name)
	if !deref && !c.isShared(name) {
		return
	}
	op := Op{Kind: kind, Obj: resolved, Deref: deref, Line: c.peek().line}
	if deref {
		if src, ok := c.prog.PtrLoads[resolved]; ok {
			op.AddrDep = src
		}
	}
	c.fn.Ops = append(c.fn.Ops, op)
}

// assignTo parses "dst = expr" where dst is already consumed.
func (c *cparser) assignTo(dst string, dstDeref bool) error {
	// RHS classification for points-to: &x, x, *x; anything else is an
	// opaque expression whose reads we still record.
	if c.eatPunct("&") {
		if c.peek().kind != ctokIdent {
			return c.errf("expected name after '&'")
		}
		src := c.resolveName(c.next().text)
		c.prog.Assigns = append(c.prog.Assigns, assign{dstName: dst, dstDeref: dstDeref, srcAddr: src})
		c.writeDst(dst, dstDeref)
		return nil
	}
	startDeref := false
	for c.eatPunct("*") {
		startDeref = true
	}
	if c.peek().kind == ctokIdent && !typeKeywords[c.peek().text] {
		name := c.next().text
		if c.atPunct("(") {
			if err := c.callRest(name); err != nil {
				return err
			}
			c.writeDst(dst, dstDeref)
			return nil
		}
		src := c.resolveName(name)
		if startDeref {
			c.access(OpRead, name, true)
			c.prog.Assigns = append(c.prog.Assigns, assign{dstName: dst, dstDeref: dstDeref, srcDeref: src})
		} else {
			c.access(OpRead, name, false)
			c.prog.Assigns = append(c.prog.Assigns, assign{dstName: dst, dstDeref: dstDeref, srcName: src})
			// A pointer loaded from a shared global: later derefs carry an
			// address dependency (rcu_dereference).
			if c.isShared(name) {
				c.prog.PtrLoads[dst] = name
			}
		}
		// Possible continuation of a larger expression.
		if err := c.exprRest(); err != nil {
			return err
		}
		c.writeDst(dst, dstDeref)
		return nil
	}
	if err := c.expr(); err != nil {
		return err
	}
	c.writeDst(dst, dstDeref)
	return nil
}

func (c *cparser) writeDst(dst string, deref bool) {
	// dst is already resolved; recover the bare name for sharedness.
	bare := dst
	if i := len(c.fnPrefix()); i > 0 && len(dst) > i && dst[:i] == c.fnPrefix() {
		bare = dst[i:]
	}
	if c.fn == nil {
		return
	}
	if !deref && !c.prog.Globals[bare] && !c.prog.Globals[dst] {
		return
	}
	op := Op{Kind: OpWrite, Obj: dst, Deref: deref, Line: c.peek().line}
	if deref {
		if src, ok := c.prog.PtrLoads[dst]; ok {
			op.AddrDep = src
		}
	}
	if !deref {
		op.Obj = bare
		if !c.prog.Globals[bare] {
			op.Obj = dst
		}
	}
	c.fn.Ops = append(c.fn.Ops, op)
}

func (c *cparser) fnPrefix() string {
	if c.fn == nil {
		return ""
	}
	return c.fn.Name + "::"
}

// callRest parses a call whose name is consumed; '(' is current.
func (c *cparser) callRest(name string) error {
	if err := c.expectPunct("("); err != nil {
		return err
	}
	var args []string
	argIsAddr := map[int]bool{}
	idx := 0
	for !c.atPunct(")") {
		if c.eatPunct("&") {
			if c.peek().kind == ctokIdent {
				args = append(args, c.resolveName(c.next().text))
				argIsAddr[idx] = true
			}
		} else if c.peek().kind == ctokIdent && !typeKeywords[c.peek().text] {
			n := c.next().text
			if c.atPunct("(") {
				if err := c.callRest(n); err != nil {
					return err
				}
				args = append(args, "")
			} else {
				c.access(OpRead, n, false)
				args = append(args, c.resolveName(n))
			}
			if err := c.exprRest(); err != nil {
				return err
			}
		} else {
			if err := c.exprAtom(); err != nil {
				return err
			}
			if err := c.exprRest(); err != nil {
				return err
			}
			args = append(args, "")
		}
		idx = len(args)
		if !c.eatPunct(",") {
			break
		}
	}
	if err := c.expectPunct(")"); err != nil {
		return err
	}
	if c.fn == nil {
		return nil
	}
	if k, ok := fenceCalls[name]; ok {
		c.fn.Ops = append(c.fn.Ops, Op{Kind: OpFence, Fence: k, Line: c.peek().line})
		return nil
	}
	if name == "pthread_create" {
		// pthread_create(&tid, attr, entry, arg)
		if len(args) >= 3 && args[2] != "" {
			entry := args[2]
			if i := len(c.fnPrefix()); len(entry) > i && entry[:i] == c.fnPrefix() {
				entry = entry[i:]
			}
			c.fn.Spawns = append(c.fn.Spawns, entry)
			c.fn.Ops = append(c.fn.Ops, Op{Kind: OpSpawn, Callee: entry, Line: c.peek().line})
			if len(args) >= 4 && args[3] != "" {
				// The spawn argument flows into the entry's first parameter.
				c.prog.Assigns = append(c.prog.Assigns, assign{
					dstName: entry + "::arg0",
					srcName: args[3],
				})
				if argIsAddr[3] {
					c.prog.Assigns[len(c.prog.Assigns)-1] = assign{
						dstName: entry + "::arg0", srcAddr: args[3],
					}
				}
			}
		}
		return nil
	}
	if ignoredCalls[name] {
		return nil
	}
	c.fn.Calls = append(c.fn.Calls, name)
	c.fn.Ops = append(c.fn.Ops, Op{Kind: OpCall, Callee: name, Line: c.peek().line})
	// Bind address-of arguments to the callee's parameters.
	for i, a := range args {
		if a != "" {
			dst := fmt.Sprintf("%s::param%d", name, i)
			if argIsAddr[i] {
				c.prog.Assigns = append(c.prog.Assigns, assign{dstName: dst, srcAddr: a})
			} else {
				c.prog.Assigns = append(c.prog.Assigns, assign{dstName: dst, srcName: a})
			}
		}
	}
	return nil
}

// expr parses an expression for its side effects (reads, calls).
func (c *cparser) expr() error {
	if err := c.exprAtom(); err != nil {
		return err
	}
	return c.exprRest()
}

var binops = map[string]bool{
	"+": true, "-": true, "==": true, "!=": true, "<": true, ">": true,
	"<=": true, ">=": true, "&&": true, "||": true, "%": true, "/": true,
}

func (c *cparser) exprRest() error {
	for {
		t := c.peek()
		if t.kind == ctokPunct && binops[t.text] {
			c.next()
			if err := c.exprAtom(); err != nil {
				return err
			}
			continue
		}
		return nil
	}
}

func (c *cparser) exprAtom() error {
	for c.eatPunct("!") || c.eatPunct("-") {
	}
	deref := false
	for c.eatPunct("*") {
		deref = true
	}
	if c.eatPunct("&") {
		if c.peek().kind != ctokIdent {
			return c.errf("expected name after '&'")
		}
		c.next()
		return nil
	}
	t := c.peek()
	switch {
	case t.kind == ctokInt || t.kind == ctokString:
		c.next()
		return nil
	case t.kind == ctokIdent:
		name := c.next().text
		if c.atPunct("(") {
			return c.callRest(name)
		}
		c.access(OpRead, name, deref)
		return nil
	case t.kind == ctokPunct && t.text == "(":
		c.next()
		if err := c.expr(); err != nil {
			return err
		}
		return c.expectPunct(")")
	}
	return c.errf("unsupported expression at %q", t.text)
}
