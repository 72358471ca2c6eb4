package exec

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
