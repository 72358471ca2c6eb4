// Package machine implements the intermediate operational machine of
// Sec. 7 (Fig. 30) of "Herding cats": a transition system over labels
//
//	c(w)    commit write
//	cp(w)   write reaches coherence point
//	s(w,r)  satisfy read (from the write w it reads)
//	c(w,r)  commit read
//
// that is provably equivalent to the axiomatic model (Thm. 7.1). Package
// tests realise the paper's Coq proof experimentally: for every candidate
// execution of the corpus, the machine accepts some path iff the axiomatic
// model validates the candidate; and for valid candidates the constructive
// path of Lemma 7.3 is accepted.
//
// The machine is parametrised by an architecture's (ppo, fences, prop)
// and its SC PER LOCATION program order, read off a cat model's bindings
// ppo, fence, prop, hb = ppo ∪ fence ∪ rfe and po-loc-sc: po-loc in the
// template models of Fig. 38, po-loc \ RR(po-loc) in arm-llh.cat.
package machine

import (
	"fmt"
	"sync"

	"herdcats/internal/cat"
	"herdcats/internal/events"
	"herdcats/internal/rel"
)

// Model evaluates the relations the machine's premises read — the
// bindings ppo, fence, prop, hb and po-loc-sc of a cat model — on
// candidate executions. It holds one evaluator, so one Model serves one
// search on one goroutine. It also holds the storage Accepts builds each
// candidate's machine in, taken from a pool and handed back by Release
// with the evaluator, so the machines of one search, and of the searches
// after it, allocate nothing once warm.
type Model struct {
	name string
	r    *cat.Reader
	sc   *scratch // Accepts' storage; nil until its first call
}

// scratch is the storage Model.Accepts builds machines in: the machine,
// rebuilt for each candidate, the backing its relations are carved from,
// and the memo of dead states, cleared for each candidate.
type scratch struct {
	m    Machine
	bits []uint64
	rels []rel.Rel
	dead map[state]bool
}

// scratches keeps the storage of released Models.
var scratches = sync.Pool{New: func() any { return &scratch{dead: map[state]bool{}} }}

// NewModel binds the machine to a cat model, which must bind ppo, fence,
// prop, hb and po-loc-sc.
func NewModel(m *cat.Model) (*Model, error) {
	c, err := m.Compiled()
	if err != nil {
		return nil, err
	}
	r, err := c.Reader("ppo", "fence", "prop", "hb", "po-loc-sc")
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	return &Model{name: m.Name(), r: r}, nil
}

// Name returns the cat model's declared name.
func (md *Model) Name() string { return md.name }

// Release hands the Model's evaluator back to the cat model's pool, and
// the storage of its machines back to this package's; the Model must not
// be used again.
func (md *Model) Release() {
	md.r.Release()
	if sc := md.sc; sc != nil {
		md.sc = nil
		sc.m.x, sc.m.co = nil, rel.Rel{} // keep no candidate alive in the pool
		clear(sc.dead)
		scratches.Put(sc)
	}
}

// LabelKind identifies a transition of the machine.
type LabelKind uint8

// The four transition kinds of Fig. 30.
const (
	CommitWrite LabelKind = iota
	WriteReachesCoherencePoint
	SatisfyRead
	CommitRead
)

func (k LabelKind) String() string {
	switch k {
	case CommitWrite:
		return "c(w)"
	case WriteReachesCoherencePoint:
		return "cp(w)"
	case SatisfyRead:
		return "s(w,r)"
	case CommitRead:
		return "c(w,r)"
	}
	return "?"
}

// Label is one transition trigger. For reads, Write is the event the read
// takes its value from (chosen angelically in the paper; fixed here by the
// candidate's rf).
type Label struct {
	Kind  LabelKind
	Event int // the write (c, cp) or the read (s, c)
	Write int // for read labels: the satisfying write; -1 otherwise
}

func (l Label) String() string {
	if l.Kind == SatisfyRead || l.Kind == CommitRead {
		return fmt.Sprintf("%s[w=%d,r=%d]", l.Kind, l.Write, l.Event)
	}
	return fmt.Sprintf("%s[%d]", l.Kind, l.Event)
}

// Machine validates label paths for one candidate execution under one
// model. The candidate's rf and co are fixed, so the derived relations
// (prop, ppo, fences, hb) are those of the axiomatic model. They are the
// machine's own copies: the model's evaluator moves on to the next
// candidate without touching them.
type Machine struct {
	x *events.Execution

	writes    []int // non-init writes
	reads     []int
	allWrites []int // every write, the initial ones included
	rfOf      []int // by event ID: a read's write, -1 for every other event

	poloc     rel.Rel // po-loc-sc, the program order of SC PER LOCATION
	prop      rel.Rel
	ppoFences rel.Rel // ppo ∪ fences
	fences    rel.Rel
	propHBs   rel.Rel // prop ; hb*
	co        rel.Rel

	// One successor mask per event and relation, so that a premise over
	// the committed or satisfied events is one AND against the state.
	succ        []succMasks
	writeMask   uint64   // m.writes
	readMask    uint64   // m.reads
	coPred      []uint64 // co-predecessors of each event
	propHBsPred []uint64 // (prop;hb*)-predecessors of each event

	// visibility pre-computation (CR: SC PER LOCATION cases)
	visible []bool // by event ID: is a read's rf(r) visible to it?

	labels []Label // accepts' labels, kept for the next candidate
}

// succMasks are one event's successors in the relations enabled tests
// against the state.
type succMasks struct {
	poloc, prop, fences, ppoFences, co uint64
}

// maxEvents bounds the bitset state encoding.
const maxEvents = 64

// machineRels is the number of relations a machine derives: the five
// bindings it reads, ppo ∪ fences, hb* and prop ; hb*.
const machineRels = 8

// New builds the machine for a derived candidate execution under the
// model md, in storage of its own: the machine stays valid as long as x
// does.
func New(md *Model, x *events.Execution) (*Machine, error) {
	if err := checkSize(x); err != nil {
		return nil, err
	}
	m := &Machine{}
	if err := m.build(md, x, rel.NewN(x.N(), machineRels)); err != nil {
		return nil, err
	}
	return m, nil
}

// Accepts builds the machine for a derived candidate execution under md
// in md's storage and reports whether it accepts (Machine.Accepts). The
// machine, its relations and its memo of dead states are md's, rebuilt
// for each candidate, so nothing of one candidate's machine survives into
// the next one's.
func (md *Model) Accepts(x *events.Execution) (bool, error) {
	if err := checkSize(x); err != nil {
		return false, err
	}
	if md.sc == nil {
		md.sc = scratches.Get().(*scratch)
	}
	sc := md.sc
	sc.rels = rel.Carve(&sc.bits, sc.rels, x.N(), machineRels)
	if err := sc.m.build(md, x, sc.rels); err != nil {
		return false, err
	}
	clear(sc.dead)
	return sc.m.accepts(sc.dead), nil
}

// checkSize rejects an execution the bitset state cannot encode.
func checkSize(x *events.Execution) error {
	if n := x.N(); n > maxEvents {
		return fmt.Errorf("machine: execution has %d events, max %d", n, maxEvents)
	}
	return nil
}

// build fills m for x under md, over rs, machineRels empty relations over
// x's events; it reuses the capacity of m's slices.
func (m *Machine) build(md *Model, x *events.Execution, rs []rel.Rel) error {
	n := x.N()
	m.x = x
	m.rfOf = resize(m.rfOf, n)
	m.visible = resize(m.visible, n)
	m.writes, m.reads, m.allWrites = m.writes[:0], m.reads[:0], m.allWrites[:0]
	for i := range m.rfOf {
		m.rfOf[i] = -1
	}
	for _, e := range x.Events {
		switch {
		case e.Kind == events.MemWrite:
			m.allWrites = append(m.allWrites, e.ID)
			if !e.IsInit() {
				m.writes = append(m.writes, e.ID)
			}
		case e.Kind == events.MemRead:
			m.reads = append(m.reads, e.ID)
		}
	}
	x.MemRF().ForEachPair(func(w, r int) { m.rfOf[r] = w })
	for _, r := range m.reads {
		if m.rfOf[r] < 0 {
			return fmt.Errorf("machine: read %d has no rf edge", r)
		}
	}

	if err := md.r.ValuesInto(x, rs[:5]); err != nil {
		return fmt.Errorf("machine: %w", err)
	}
	ppo, hb := rs[0], rs[3]
	m.fences, m.prop, m.poloc = rs[1], rs[2], rs[4]
	m.ppoFences = rs[5]
	m.ppoFences.CopyFrom(ppo)
	m.ppoFences.UnionInto(m.fences)
	hbStar := rs[6]
	hbStar.CopyFrom(hb)
	hbStar.PlusInPlace()
	hbStar.UnionIdentity()
	m.propHBs = rs[7]
	m.propHBs.SeqInto(m.prop, hbStar)
	m.co = x.CO

	for _, r := range m.reads {
		m.visible[r] = m.computeVisible(m.rfOf[r], r)
	}
	m.buildMasks()
	return nil
}

// resize returns s at length n, zeroed, reusing its capacity.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// buildMasks fills the per-event successor and predecessor masks.
func (m *Machine) buildMasks() {
	n := m.x.N()
	m.succ = resize(m.succ, n)
	m.coPred = resize(m.coPred, n)
	m.propHBsPred = resize(m.propHBsPred, n)
	m.writeMask, m.readMask = 0, 0
	for _, w := range m.writes {
		m.writeMask |= bit(w)
	}
	for _, r := range m.reads {
		m.readMask |= bit(r)
	}
	m.poloc.ForEachPair(func(i, j int) { m.succ[i].poloc |= bit(j) })
	m.prop.ForEachPair(func(i, j int) { m.succ[i].prop |= bit(j) })
	m.fences.ForEachPair(func(i, j int) { m.succ[i].fences |= bit(j) })
	m.ppoFences.ForEachPair(func(i, j int) { m.succ[i].ppoFences |= bit(j) })
	m.co.ForEachPair(func(i, j int) {
		m.succ[i].co |= bit(j)
		m.coPred[j] |= bit(i)
	})
	m.propHBs.ForEachPair(func(i, j int) { m.propHBsPred[j] |= bit(i) })
}

// computeVisible implements the visibility definition of Sec. 7.1.2,
// including the coRR refinement sketched at the end of Sec. 7.1.
func (m *Machine) computeVisible(w, r int) bool {
	x := m.x
	if x.Events[w].Loc != x.Events[r].Loc {
		return false
	}
	// coRW1: w must not be po-loc-after r.
	if m.poloc.Has(r, w) {
		return false
	}
	// w must be equal to or co-after the last write wb po-loc-before r.
	for _, wb := range m.allWrites {
		if m.poloc.Has(wb, r) && wb != w && !m.co.Has(wb, w) {
			return false // wb is po-loc-before r but not co-before w: coWR
		}
	}
	// w must be po-loc-before r or co-before every write wa po-loc-after r.
	if !m.poloc.Has(w, r) {
		for _, wa := range m.allWrites {
			if m.poloc.Has(r, wa) && wa != w && !m.co.Has(w, wa) {
				return false // coRW2
			}
		}
	}
	// coRR refinement: no earlier read r' (po-loc-before r) may read from a
	// write co-after w.
	for _, r2 := range m.reads {
		if m.poloc.Has(r2, r) {
			w2 := m.rfOf[r2]
			if w2 != w && m.co.Has(w, w2) {
				return false
			}
		}
	}
	return true
}

// state is the machine state (cw, cpw, sr, cr) as bitsets; with co fixed,
// the order within cpw is determined, so membership suffices.
type state struct {
	cw, cpw, sr, cr uint64
}

func bit(i int) uint64 { return 1 << uint(i) }

// initial returns the start state: initial writes are committed and at
// their coherence points (they are co-before everything by convention).
func (m *Machine) initial() state {
	var s state
	for _, e := range m.x.Events {
		if e.Kind == events.MemWrite && e.IsInit() {
			s.cw |= bit(e.ID)
			s.cpw |= bit(e.ID)
		}
	}
	return s
}

// final reports whether every label has been consumed.
func (m *Machine) final(s state) bool {
	for _, w := range m.writes {
		if s.cw&bit(w) == 0 || s.cpw&bit(w) == 0 {
			return false
		}
	}
	for _, r := range m.reads {
		if s.sr&bit(r) == 0 || s.cr&bit(r) == 0 {
			return false
		}
	}
	return true
}

// enabled reports whether the transition labelled l can fire in s, checking
// the premises of Fig. 30.
func (m *Machine) enabled(s state, l Label) bool {
	switch l.Kind {
	case CommitWrite:
		w := l.Event
		if s.cw&bit(w) != 0 {
			return false
		}
		a := m.succ[w]
		// (CW: SC PER LOCATION/coWW): no committed po-loc-later write.
		// (CW: PROPAGATION): no committed prop-later write.
		// (CW: fences ∩ WR): no satisfied fence-later read.
		// (CW: PROPAGATION on reads): prop pairs whose target is a read
		// order the write's commit before the read's satisfaction; this
		// covers the strong-A-cumulativity pairs of Fig. 18, which Fig. 30
		// spells out only for write-write pairs.
		return s.cw&m.writeMask&(a.poloc|a.prop) == 0 &&
			s.sr&m.readMask&(a.fences|a.prop) == 0

	case WriteReachesCoherencePoint:
		w := l.Event
		if s.cpw&bit(w) != 0 {
			return false
		}
		// (CPW: WRITE IS COMMITTED)
		if s.cw&bit(w) == 0 {
			return false
		}
		// (CPW: po-loc AND cpw IN ACCORD) / (CPW: PROPAGATION):
		// no write already at coherence point may be po-loc- or prop-after w.
		// Fixing the candidate's co: all co-predecessors first.
		a := m.succ[w]
		return s.cpw&(a.poloc|a.prop) == 0 && m.coPred[w]&^s.cpw == 0

	case SatisfyRead:
		r := l.Event
		w := l.Write
		if s.sr&bit(r) != 0 {
			return false
		}
		// (SR: WRITE IS EITHER LOCAL OR COMMITTED)
		local := m.poloc.Has(w, r) && m.x.Events[w].Tid == m.x.Events[r].Tid
		if !local && s.cw&bit(w) == 0 {
			return false
		}
		a := m.succ[r]
		// (SR: PPO/ii0 ∩ RR): no satisfied (ppo∪fences)-later read; also no
		// satisfied prop-later read (read-read prop pairs arise from strong
		// A-cumulativity and order satisfaction points).
		// (SR: PROPAGATION on writes): no committed prop-later write.
		// (SR: OBSERVATION): no w' co-after w with (w', r) ∈ prop;hb*.
		return s.sr&m.readMask&(a.ppoFences|a.prop) == 0 &&
			s.cw&m.writeMask&a.prop == 0 &&
			m.succ[w].co&m.propHBsPred[r] == 0

	case CommitRead:
		r := l.Event
		if s.cr&bit(r) != 0 {
			return false
		}
		// (CR: READ IS SATISFIED)
		if s.sr&bit(r) == 0 {
			return false
		}
		// (CR: SC PER LOCATION): visibility, pre-computed.
		if !m.visible[r] {
			return false
		}
		// (CR: PPO/cc0 ∩ RW): no committed (ppo∪fences)-later write.
		// (CR: PPO/(ci0 ∪ cc0) ∩ RR): no satisfied (ppo∪fences)-later read.
		a := m.succ[r]
		return s.cw&m.writeMask&a.ppoFences == 0 && s.sr&m.readMask&a.ppoFences == 0
	}
	return false
}

// apply fires the transition (which must be enabled).
func (m *Machine) apply(s state, l Label) state {
	switch l.Kind {
	case CommitWrite:
		s.cw |= bit(l.Event)
	case WriteReachesCoherencePoint:
		s.cpw |= bit(l.Event)
	case SatisfyRead:
		s.sr |= bit(l.Event)
	case CommitRead:
		s.cr |= bit(l.Event)
	}
	return s
}

// Labels returns all labels of the candidate, in a deterministic order.
func (m *Machine) Labels() []Label { return m.appendLabels(nil) }

// appendLabels appends the candidate's labels to out.
func (m *Machine) appendLabels(out []Label) []Label {
	for _, w := range m.writes {
		out = append(out,
			Label{Kind: CommitWrite, Event: w, Write: -1},
			Label{Kind: WriteReachesCoherencePoint, Event: w, Write: -1})
	}
	for _, r := range m.reads {
		out = append(out,
			Label{Kind: SatisfyRead, Event: r, Write: m.rfOf[r]},
			Label{Kind: CommitRead, Event: r, Write: m.rfOf[r]})
	}
	return out
}

// AcceptsPath validates one explicit path: every label fires in order and
// the final state is complete.
func (m *Machine) AcceptsPath(path []Label) bool {
	s := m.initial()
	for _, l := range path {
		if !m.enabled(s, l) {
			return false
		}
		s = m.apply(s, l)
	}
	return m.final(s)
}

// Accepts reports whether some path of the machine consumes every label —
// the operational acceptance of the candidate. It explores the transition
// system with memoisation on dead states.
func (m *Machine) Accepts() bool { return m.accepts(map[state]bool{}) }

// accepts is Accepts with the memo of dead states dead, empty on entry.
func (m *Machine) accepts(dead map[state]bool) bool {
	m.labels = m.appendLabels(m.labels[:0])
	return m.search(m.initial(), dead)
}

// search reports whether some path from s consumes every label, recording
// the states from which none does in dead.
func (m *Machine) search(s state, dead map[state]bool) bool {
	if m.final(s) {
		return true
	}
	if dead[s] {
		return false
	}
	for _, l := range m.labels {
		if m.enabled(s, l) && m.search(m.apply(s, l), dead) {
			return true
		}
	}
	dead[s] = true
	return false
}

// ExploreBounded walks the ENTIRE reachable state space (no early exit on
// acceptance), the way an operational simulator enumerates all outcomes of
// a test, stopping only at the state cap: the memory bound under which
// ppcmem could process only 4704 of the paper's 8117 tests (Tab. IX). It
// reports whether a complete (final) state was reached, whether the cap
// was hit, and the states explored.
func (m *Machine) ExploreBounded(maxStates int) (accepted, capped bool, states int) {
	labels := m.Labels()
	seen := map[state]bool{}
	var walk func(s state)
	walk = func(s state) {
		if seen[s] || capped {
			return
		}
		if len(seen) >= maxStates {
			capped = true
			return
		}
		seen[s] = true
		if m.final(s) {
			accepted = true
			return
		}
		for _, l := range labels {
			if m.enabled(s, l) {
				walk(m.apply(s, l))
			}
		}
	}
	walk(m.initial())
	return accepted, capped, len(seen)
}

// CountStates exhaustively explores the reachable state space and returns
// the number of distinct states visited. This is the cost profile of
// operational simulation (Tab. IX): exponential in the number of events,
// where the axiomatic check is a handful of matrix operations.
func (m *Machine) CountStates() int {
	labels := m.Labels()
	seen := map[state]bool{}
	var walk func(s state)
	walk = func(s state) {
		if seen[s] {
			return
		}
		seen[s] = true
		for _, l := range labels {
			if m.enabled(s, l) {
				walk(m.apply(s, l))
			}
		}
	}
	walk(m.initial())
	return len(seen)
}

// ConstructPath builds the explicit accepting path of Lemma 7.3 by
// linearising the ordering relation over labels that the proof prescribes.
// It returns ok=false if the relation is cyclic, which for a valid
// axiomatic execution cannot happen (that is the content of the lemma).
func (m *Machine) ConstructPath() ([]Label, bool) {
	labels := m.Labels()
	idx := map[Label]int{}
	for i, l := range labels {
		idx[l] = i
	}
	r := rel.New(len(labels))
	cW := func(w int) (int, bool) {
		l, ok := idx[Label{Kind: CommitWrite, Event: w, Write: -1}]
		return l, ok
	}
	cpW := func(w int) (int, bool) {
		l, ok := idx[Label{Kind: WriteReachesCoherencePoint, Event: w, Write: -1}]
		return l, ok
	}
	sR := func(rd int) (int, bool) {
		l, ok := idx[Label{Kind: SatisfyRead, Event: rd, Write: m.rfOf[rd]}]
		return l, ok
	}
	cR := func(rd int) (int, bool) {
		l, ok := idx[Label{Kind: CommitRead, Event: rd, Write: m.rfOf[rd]}]
		return l, ok
	}
	addEdge := func(a int, aok bool, b int, bok bool) {
		if aok && bok {
			r.Add(a, b)
		}
	}

	// s(r) before c(r); c(w) before cp(w).
	for _, rd := range m.reads {
		a, aok := sR(rd)
		b, bok := cR(rd)
		addEdge(a, aok, b, bok)
	}
	for _, w := range m.writes {
		a, aok := cW(w)
		b, bok := cpW(w)
		addEdge(a, aok, b, bok)
	}
	// Fenced write-read pairs: commit write before satisfying the read.
	for _, p := range m.fences.Pairs() {
		if m.x.Events[p[0]].Kind == events.MemWrite && m.x.Events[p[1]].Kind == events.MemRead {
			a, aok := cW(p[0])
			b, bok := sR(p[1])
			addEdge(a, aok, b, bok)
		}
	}
	// External rf: commit the write before the read is satisfied.
	for _, p := range m.x.RFE.Pairs() {
		a, aok := cW(p[0])
		b, bok := sR(p[1])
		addEdge(a, aok, b, bok)
	}
	// co and prop+: cp labels in order. Commit labels follow prop+ and
	// the po-loc pairs of co, the only orders the premises of c(w)
	// impose; a co pair across threads orders the cp labels only, so a
	// write may commit before a co-earlier one (ARM's mp+dmb+rdw).
	// prop pairs involving reads order the corresponding satisfaction
	// points, mirroring the extended machine premises.
	propPlus := m.prop.Plus()
	labelOf := func(ev int) (int, bool) {
		if m.x.Events[ev].Kind == events.MemRead {
			return sR(ev)
		}
		return cW(ev)
	}
	for _, p := range m.co.Union(propPlus).Pairs() {
		a, aok := cpW(p[0])
		b, bok := cpW(p[1])
		addEdge(a, aok, b, bok)
	}
	commits := m.co.Inter(m.poloc)
	commits.UnionInto(propPlus)
	for _, p := range commits.Pairs() {
		a, aok := labelOf(p[0])
		b, bok := labelOf(p[1])
		addEdge(a, aok, b, bok)
	}
	// (r, e) ∈ ppo∪fences with r a read: commit r before processing e.
	for _, p := range m.ppoFences.Pairs() {
		if m.x.Events[p[0]].Kind != events.MemRead {
			continue
		}
		a, aok := cR(p[0])
		if m.x.Events[p[1]].Kind == events.MemRead {
			b, bok := sR(p[1])
			addEdge(a, aok, b, bok)
		} else if m.x.Events[p[1]].Kind == events.MemWrite {
			b, bok := cW(p[1])
			addEdge(a, aok, b, bok)
		}
	}

	order, ok := r.TopoSort()
	if !ok {
		return nil, false
	}
	path := make([]Label, len(order))
	for i, li := range order {
		path[i] = labels[li]
	}
	return path, true
}
