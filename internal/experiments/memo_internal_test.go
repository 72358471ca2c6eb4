package experiments

import (
	"testing"
)

// TestSweepsHitTheCache: re-running the same sweep serves every verdict
// from the cache instead of re-enumerating (the point of wiring the table
// sweeps through internal/memo).
func TestSweepsHitTheCache(t *testing.T) {
	rows, err := NoDetour(3, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	tests := 0
	for _, r := range rows {
		tests += r.Tests
	}
	mid := sweepCache.Stats()

	// The identical sweep again: every (test, variant) verdict is cached.
	if _, err := NoDetour(3, 3, 10); err != nil {
		t.Fatal(err)
	}
	after := sweepCache.Stats()
	if gained := after.Hits - mid.Hits; gained < uint64(2*tests) {
		t.Fatalf("verdict hits grew by %d on the repeated sweep, want >= %d", gained, 2*tests)
	}
	if after.Misses != mid.Misses {
		t.Fatalf("repeated sweep re-simulated: misses %d -> %d", mid.Misses, after.Misses)
	}
}
