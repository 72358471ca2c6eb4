package mine

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"herdcats/internal/crosscheck"
	"herdcats/internal/litmus"
	"herdcats/internal/memo"
)

// Key is the content address of one mining unit: the SHA-256 over the
// length-prefixed canonical litmus source (memo.CanonicalTest, so sources
// differing only in comments or whitespace coincide) and the identity of
// every pair checked. A restarted campaign regenerates the same tests,
// derives the same keys, and resumes from the store instead of
// recomputing.
func Key(t *litmus.Test, pairs []crosscheck.Pair) string {
	h := sha256.New()
	write := func(field string) {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(field)))
		h.Write(n[:])
		h.Write([]byte(field))
	}
	write(memo.CanonicalTest(t))
	for _, p := range pairs {
		write(p.String())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Record is one persisted verdict: the content key, the cycle and test it
// came from, and the comparison outcome. Re-mining a key serves this
// record instead of re-running the deciders.
type Record struct {
	Key           string               `json:"key"`
	Test          string               `json:"test"`
	Cycle         string               `json:"cycle"`
	Pairs         int                  `json:"pairs"`
	Agreements    int                  `json:"agreements"`
	Disagreements int                  `json:"disagreements"`
	Verdicts      []crosscheck.Verdict `json:"verdicts,omitempty"`
}

// Store is the append-only corpus journal behind a mining campaign: one
// JSON record per line, loaded wholesale on open, appended on every fresh
// verdict. Crash-truncated trailing lines are tolerated on load (the
// record they would have held is simply re-mined). Safe for concurrent
// use.
type Store struct {
	mu    sync.Mutex
	f     *os.File
	byKey map[string]*Record
	path  string
}

// OpenStore opens (creating if needed) the journal at path and replays it
// into memory.
func OpenStore(path string) (*Store, error) {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	s := &Store{f: f, byKey: map[string]*Record{}, path: path}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			// A torn final line from a crashed writer: drop it and every
			// later line — appends resume from here.
			break
		}
		s.byKey[rec.Key] = &rec
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, fmt.Errorf("mine: reading store %s: %w", path, err)
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// Get returns the persisted record for a key, if any.
func (s *Store) Get(key string) (*Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.byKey[key]
	return rec, ok
}

// Put appends a record to the journal and the in-memory index. A repeated
// key overwrites the index entry (last writer wins) but both lines stay in
// the journal — replay keeps the last.
func (s *Store) Put(rec *Record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.f.Write(data); err != nil {
		return fmt.Errorf("mine: appending to store %s: %w", s.path, err)
	}
	s.byKey[rec.Key] = rec
	return nil
}

// Len returns the number of distinct keys resident.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byKey)
}

// Close flushes and closes the journal.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}
