package exec

import (
	"unsafe"

	"herdcats/internal/litmus"
)

// Memo reports what a program keeps across its searches: whether it holds
// complete trace sets, and how many combination expansions.
func Memo(p *Program) (traces bool, exps int) {
	sh := p.shared
	if sh == nil {
		return false, 0
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.traces != nil, len(sh.exps)
}

// Store is stage-1 storage that a test hands from program to program
// itself, outside the pool.
type Store struct{ st *store }

// NewStore returns empty storage.
func NewStore() *Store { return &Store{st: new(store)} }

// CompileIn is Compile with the program's stage 1 carved from s.
func CompileIn(t *litmus.Test, s *Store) (*Program, error) {
	p, err := Compile(t)
	if err != nil {
		return nil, err
	}
	p.stOnce.Do(func() { p.st = s.st })
	return p, nil
}

// Release releases p, a program compiled in s, as Program.Release does,
// but keeps the rewound storage in s for the next CompileIn.
func (s *Store) Release(p *Program) { s.st = p.detach() }

// StoreSize reports the size of the storage backing the skeleton of a
// candidate, within its yield: the bytes in use of the chunks its store
// carves from, and the maps in use; and the bytes it holds, every chunk
// at capacity.
func StoreSize(c *Candidate) (used, maps, held int) {
	st := c.slot.exp.st
	st.mu.Lock()
	defer st.mu.Unlock()
	sk := &st.skel
	for _, n := range [...][2]int{
		chunk(st.evs), chunk(st.edges), chunk(st.accs), chunk(st.traces), chunk(st.sets),
		chunk(sk.evs), chunk(sk.ints), chunk(sk.intss), chunk(sk.mems), chunk(sk.cos),
		chunk(sk.decs), chunk(sk.words), chunk(sk.rels), chunk(sk.sets),
	} {
		used, held = used+n[0], held+n[1]
	}
	return used, st.nRegs + sk.nFinals + sk.nFences, held
}

// chunk is the bytes of c in use and at capacity.
func chunk[T any](c []T) [2]int {
	var t T
	return [2]int{len(c) * int(unsafe.Sizeof(t)), cap(c) * int(unsafe.Sizeof(t))}
}
