package mine

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"herdcats/internal/bmc"
	"herdcats/internal/crosscheck"
	"herdcats/internal/diy"
	"herdcats/internal/litmus"
)

// cheapPairs is a fast expected-agreement table for tests that exercise
// the campaign machinery rather than the deciders: the cat simulator vs
// SAT on SC and TSO, plus the SC⊆TSO inclusion.
func cheapPairs() []crosscheck.Pair {
	catSC, catTSO := crosscheck.MustCat("sc"), crosscheck.MustCat("tso")
	return []crosscheck.Pair{
		{A: catSC, B: crosscheck.BMC(bmc.SC), Rel: crosscheck.Equal},
		{A: catTSO, B: crosscheck.BMC(bmc.TSO), Rel: crosscheck.Equal},
		{A: catSC, B: catTSO, Rel: crosscheck.Subset},
	}
}

// TestMinerResume: a second campaign over the same journal serves every
// test from the store — resume hits, zero fresh decider work.
func TestMinerResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state", "corpus.jsonl")
	cfg := Config{
		Arch:          litmus.PPC,
		ExhaustiveMax: 3,
		MaxTests:      40,
		Workers:       4,
		Pairs:         cheapPairs(),
	}

	store, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = store
	m1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := m1.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if s1.Tests != 40 || s1.Checked != 40 || s1.ResumeHits != 0 {
		t.Fatalf("first run: %+v, want 40 fresh tests", s1)
	}
	if s1.Disagreements != 0 || s1.DeciderErrors != 0 {
		t.Fatalf("first run found spurious disagreements/errors: %+v", s1)
	}
	if s1.PairsChecked != 40*len(cfg.Pairs) || s1.Agreements != s1.PairsChecked {
		t.Fatalf("first run pair accounting: %+v", s1)
	}
	if s1.CorpusSize != 40 {
		t.Fatalf("corpus size %d, want 40", s1.CorpusSize)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if store2.Len() != 40 {
		t.Fatalf("journal replay found %d records, want 40", store2.Len())
	}
	cfg.Store = store2
	m2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := m2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if s2.Tests != 40 || s2.ResumeHits != 40 || s2.Checked != 0 {
		t.Fatalf("resumed run recomputed: %+v", s2)
	}
	if s2.PairsChecked != 0 {
		t.Fatalf("resumed run ran %d pair checks, want 0", s2.PairsChecked)
	}
}

// TestMinerCanceled: cancellation surfaces as context.Canceled with a
// partial summary, not a hang or a corrupted store.
func TestMinerCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, err := New(Config{Arch: litmus.PPC, Pairs: cheapPairs(), MaxTests: 10})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := m.Run(ctx)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sum == nil || sum.Tests != 0 {
		t.Fatalf("canceled-before-start run still processed tests: %+v", sum)
	}
}

// TestKeyIdentity: the content address is stable across calls, sensitive
// to the pair table, and insensitive to nothing it shouldn't be.
func TestKeyIdentity(t *testing.T) {
	c, err := diy.ParseCycle("SyncdWW Rfe DpAddrdR Fre")
	if err != nil {
		t.Fatal(err)
	}
	test, err := diy.Generate(litmus.PPC, c)
	if err != nil {
		t.Fatal(err)
	}
	pairs := cheapPairs()
	k1, k2 := Key(test, pairs), Key(test, pairs)
	if k1 != k2 || len(k1) != 64 {
		t.Fatalf("key not stable: %s vs %s", k1, k2)
	}
	if k := Key(test, pairs[:2]); k == k1 {
		t.Fatal("key ignores the pair table")
	}
}

// TestStoreTornLine: a journal whose last line was torn by a crash replays
// the intact prefix and accepts appends.
func TestStoreTornLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.jsonl")
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(&Record{Key: "k1", Test: "t1"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(&Record{Key: "k2", Test: "t2"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"k3","tes`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 2 {
		t.Fatalf("replayed %d records, want the 2 intact ones", s2.Len())
	}
	if _, ok := s2.Get("k3"); ok {
		t.Fatal("torn record resurrected")
	}
	if err := s2.Put(&Record{Key: "k4", Test: "t4"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get("k4"); !ok {
		t.Fatal("append after torn-line recovery lost")
	}
}
