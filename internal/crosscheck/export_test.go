package crosscheck

// OnSlotRelease has f told of every release of a bmc decider's SAT slot:
// whether a comparison shared it, and whether it held an instance. It
// returns the function that stops telling.
func OnSlotRelease(f func(shared, hadInstance bool)) (restore func()) {
	slotReleased = f
	return func() { slotReleased = nil }
}
