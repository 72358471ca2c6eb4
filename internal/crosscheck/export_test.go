package crosscheck

// OnSlotRelease has f told of every release of a bmc decider's SAT slot:
// whether a comparison shared it, and whether it held an instance. It
// returns the function that stops telling.
func OnSlotRelease(f func(shared, hadInstance bool)) (restore func()) {
	slotReleased = f
	return func() { slotReleased = nil }
}

// OnProgramRelease has f told each time a comparison has released its
// shared program. It returns the function that stops telling.
func OnProgramRelease(f func()) (restore func()) {
	programReleased = f
	return func() { programReleased = nil }
}
