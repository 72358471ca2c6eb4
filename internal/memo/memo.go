// Package memo is the content-addressed verdict cache behind the serving
// layer (cmd/herdd and herd-gw): a (litmus test, model, budget) triple is
// a pure function of its inputs, so its simulation outcome can be
// addressed by the SHA-256 of a canonical rendering of those inputs and
// computed exactly once.
//
// The cache has three layers, each LRU-bounded and instrumented:
//
//   - verdicts: key → Verdict, the expensive product: an outcome, and
//     the bytes a caller rendered from it (KeepBody), evicted with it;
//   - aliases: raw request bytes → Resolved, so a repeated litmus source
//     is parsed and canonicalised once (see Resolve);
//   - models: cat source → *cat.Model, so inline model sources are
//     compiled once.
//
// The cache keeps no compiled test: a verdict miss compiles the test
// afresh (exec.Compile), and the program lives only as long as that
// simulation (DESIGN.md §18).
//
// Concurrent identical requests are deduplicated with a stdlib-only
// singleflight: the first caller (the leader) simulates, every concurrent
// duplicate waits on the leader's result, and the counters record exactly
// how the work was shared (Misses = simulations started, Waits = joins on
// an in-flight simulation, Hits = served from the finished cache).
//
// Cached values are shared, not copied: treat a returned *sim.Outcome or
// *cat.Model as immutable.
package memo

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"sync"

	"herdcats/internal/cat"
	"herdcats/internal/exec"
	"herdcats/internal/litmus"
	"herdcats/internal/obs"
	"herdcats/internal/sim"
)

// DefaultMaxEntries bounds each cache layer when New is given no bound.
const DefaultMaxEntries = 4096

// ErrLeaderPanicked is what a single-flight follower receives when the
// leader it joined panicked instead of completing: the follower's request
// was never simulated, and the key is immediately usable again (the next
// caller starts a fresh simulation — a panic never poisons a key).
var ErrLeaderPanicked = errors.New("memo: in-flight simulation leader panicked")

// Fingerprinter is implemented by checkers whose identity is their content
// (cat.Model hashes its source); checkers without it are identified by
// Name, which must then be unique per behaviour (internal/models is).
type Fingerprinter interface {
	Fingerprint() string
}

// ModelID derives the cache identity of a checker: the content fingerprint
// when the checker provides one, its declared name otherwise.
func ModelID(m sim.Checker) string {
	if f, ok := m.(Fingerprinter); ok {
		return "src:" + f.Fingerprint()
	}
	return "name:" + m.Name()
}

// CanonicalTest renders a test in the normalised litmus syntax, so sources
// differing only in comments, whitespace or initialisation order map to
// the same cache key.
func CanonicalTest(t *litmus.Test) string { return t.String() }

// Key is the content address of a verdict: the hex SHA-256 over the
// length-prefixed canonical test, model identity and budget key.
//
// The worker count is deliberately not part of the key: workers never
// change the outcome — the parallel candidate stream is identical to the
// sequential one (see Options).
//
// The budget's timeout is part of the key, but a COMPLETE outcome does not
// depend on it: the cache stores complete outcomes under the timeout-free
// variant of their key and consults that variant on lookup, so a verdict
// computed under a 10s timeout is served to the same request made with 30s
// (Stats.CrossTimeoutHits counts these). Outcomes truncated by the
// deterministic bounds keep their full key — whether the wall clock or the
// candidate bound trips first does depend on the timeout.
func Key(canonicalTest, modelID string, b exec.Budget) string {
	return keyOf(canonicalTest, modelID, b.Key())
}

// keyOf is Key with the budget key already rendered.
func keyOf(canonicalTest, modelID, budgetKey string) string {
	sum := digest(canonicalTest, modelID, budgetKey)
	return hex.EncodeToString(sum[:])
}

// keysOf derives a verdict's key and its timeout-free variant from one
// canonical rendering. The timeout-free key addresses the same request
// with the timeout zeroed: a complete outcome is independent of the
// timeout it beat, so that is where complete outcomes live (see Key).
// With no timeout the two keys coincide.
func keysOf(canonicalTest string, s Scope) (key, completeKey string) {
	key = keyOf(canonicalTest, s.modelID, s.budgetKey)
	if s.completeBudgetKey == s.budgetKey {
		return key, key
	}
	return key, keyOf(canonicalTest, s.modelID, s.completeBudgetKey)
}

// Scope is what every row of one request shares in its verdict address:
// the model identity and the budget, with the budget's keys rendered
// once for the whole request rather than once per row.
type Scope struct {
	modelID           string
	budgetKey         string // the budget's Key
	completeBudgetKey string // the Key of the budget with the timeout zeroed
}

// NewScope renders the scope of a request under the model identity
// modelID and budget b.
func NewScope(modelID string, b exec.Budget) Scope {
	s := Scope{modelID: modelID, budgetKey: b.Key()}
	s.completeBudgetKey = s.budgetKey
	if b.Timeout != 0 {
		b.Timeout = 0
		s.completeBudgetKey = b.Key()
	}
	return s
}

// digest is the SHA-256 over three length-prefixed fields, streamed into
// a pooled digest: hashing a row allocates nothing, and copies its fields
// through a 256-byte window rather than into one buffer.
func digest(a, b, c string) (sum [sha256.Size]byte) {
	d := digests.Get().(*digester)
	d.h.Reset()
	d.write(a)
	d.write(b)
	d.write(c)
	d.h.Sum(d.buf[:0])
	copy(sum[:], d.buf[:sha256.Size])
	digests.Put(d)
	return sum
}

// digester is a reusable SHA-256 state and the window its fields are
// copied through.
type digester struct {
	h   hash.Hash
	buf [256]byte
}

var digests = sync.Pool{New: func() any { return &digester{h: sha256.New()} }}

// write streams one length-prefixed field into the digest.
func (d *digester) write(field string) {
	binary.BigEndian.PutUint64(d.buf[:8], uint64(len(field)))
	n := 8 + copy(d.buf[8:], field)
	d.h.Write(d.buf[:n])
	for field = field[n-8:]; field != ""; field = field[n:] {
		n = copy(d.buf[:], field)
		d.h.Write(d.buf[:n])
	}
}

// Stats is a snapshot of the cache counters.
type Stats struct {
	// Verdict layer. Misses counts simulations actually started — the
	// "singleflight counter": N concurrent identical requests cost one
	// miss plus N-1 waits/hits.
	Hits      uint64 `json:"hits"`
	Waits     uint64 `json:"waits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`

	// CrossTimeoutHits counts the subset of Hits served from a complete
	// outcome computed under a different timeout (same test, model and
	// deterministic bounds).
	CrossTimeoutHits uint64 `json:"cross_timeout_hits"`

	// Compiled cat models (Model).
	ModelHits   uint64 `json:"model_hits"`
	ModelMisses uint64 `json:"model_misses"`

	// Raw-bytes alias (Resolve). A miss parses and canonicalises the
	// test; a hit does neither.
	AliasHits   uint64 `json:"alias_hits"`
	AliasMisses uint64 `json:"alias_misses"`

	// Occupancy.
	Entries  int `json:"entries"`  // verdicts resident
	Aliases  int `json:"aliases"`  // raw-bytes aliases resident
	Inflight int `json:"inflight"` // simulations running right now
}

// Cache is a bounded, concurrency-safe verdict cache with request
// deduplication. The zero value is not usable; call New or NewWithOptions.
type Cache struct {
	mu       sync.Mutex
	opts     Options
	verdicts *lruMap
	aliases  *lruMap
	models   *lruMap
	inflight map[string]*call
	stats    Stats
}

// Options tunes how the cache simulates on a miss. The options are fixed
// for the lifetime of the cache and are NOT part of the verdict keys:
// Workers need not be keyed, because the sharded verdict folds to the
// byte-identical sequential outcome, so the outcome is a pure function of
// (test, model, budget) alone.
type Options struct {
	// Workers parallelises each simulation's candidate enumeration;
	// <= 1 keeps it sequential.
	Workers int
	// Obs, when non-nil, aggregates the enumeration counters of every
	// simulation this cache performs (cache hits add nothing — no
	// enumeration happens). herdd points this at its process-wide stats
	// so /metrics reports candidates and shard utilisation.
	Obs *obs.EnumStats
}

// call is one in-flight simulation; waiters block on done.
type call struct {
	done chan struct{}
	out  *sim.Outcome
	err  error
}

// New builds a cache; maxEntries bounds each layer (<= 0 selects
// DefaultMaxEntries).
func New(maxEntries int) *Cache {
	return NewWithOptions(maxEntries, Options{})
}

// NewWithOptions builds a cache that simulates with the given enumeration
// options on every miss.
func NewWithOptions(maxEntries int, o Options) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	return &Cache{
		opts:     o,
		verdicts: newLRUMap(maxEntries),
		aliases:  newLRUMap(maxEntries),
		models:   newLRUMap(maxEntries),
		inflight: map[string]*call{},
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.verdicts.len()
	s.Aliases = c.aliases.len()
	s.Inflight = len(c.inflight)
	return s
}

// Request is one cached-simulation request — the single entry point the
// Run convenience wrapper feeds.
type Request struct {
	// Key optionally carries the precomputed content address (e.g. to
	// echo it in an API response); when empty it is derived from the
	// other fields. A non-empty Key must equal
	// Key(CanonicalTest(Test), ModelID(Model), Budget).
	Key string

	// CompleteKey optionally carries Key's timeout-free variant (see
	// Resolved). With both keys supplied the request is never rendered,
	// and Lookup needs no Test at all; with only Key supplied and a
	// non-zero timeout, the variant is derived from Test.
	CompleteKey string

	// Test and Model identify the simulation; Budget bounds it. All
	// three are cache-key material. Test may be nil for a Lookup that
	// carries both keys.
	Test   *litmus.Test
	Model  sim.Checker
	Budget exec.Budget

	// Obs, when non-nil, records the phase trace of the work THIS request
	// performs. A cache hit or an in-flight join records nothing — the
	// simulation happened elsewhere (or never) — so an empty trace is
	// itself a signal the verdict came for free.
	Obs *obs.Trace
}

// Verdict is a resident verdict: the outcome, and the body a caller kept
// with it (KeepBody; nil until one does). The body is evicted with the
// outcome.
type Verdict struct {
	Outcome *sim.Outcome
	Body    []byte
}

// Run simulates test under model with the given budget, through the cache:
// a repeated triple is served from memory, a concurrent duplicate joins the
// in-flight simulation, and only a genuinely new triple enumerates. The
// boolean reports whether the outcome came from the cache or an in-flight
// leader (true) rather than a simulation this call performed (false).
func (c *Cache) Run(ctx context.Context, t *litmus.Test, model sim.Checker, b exec.Budget) (*sim.Outcome, bool, error) {
	return c.Simulate(ctx, Request{Test: t, Model: model, Budget: b})
}

// keys returns the request's content address and its timeout-free
// variant, rendering the test at most once and only for a key the
// request does not carry.
func (req Request) keys() (key, completeKey string) {
	key, completeKey = req.Key, req.CompleteKey
	if completeKey == "" && req.Budget.Timeout == 0 {
		completeKey = key
	}
	if key == "" || completeKey == "" {
		k, ck := keysOf(CanonicalTest(req.Test), NewScope(ModelID(req.Model), req.Budget))
		if key == "" {
			key = k
		}
		if completeKey == "" {
			completeKey = ck
		}
	}
	return key, completeKey
}

// lookupLocked consults the verdict layer under c.mu, counting a Hit on
// success. Only a complete outcome may cross timeouts: the timeout-free
// key is also a regular key (for requests made with Timeout=0), so it can
// hold a deterministically-truncated outcome — valid there, but not an
// answer for a different timeout.
func (c *Cache) lookupLocked(key, completeKey string) (*Verdict, bool) {
	if v, ok := c.verdicts.get(key); ok {
		c.stats.Hits++
		return v.(*Verdict), true
	}
	if completeKey != key {
		if v, ok := c.verdicts.get(completeKey); ok && !v.(*Verdict).Outcome.Incomplete {
			c.stats.Hits++
			c.stats.CrossTimeoutHits++
			return v.(*Verdict), true
		}
	}
	return nil, false
}

// Lookup reports the cached outcome for req, if any, without simulating,
// joining an in-flight leader, or blocking beyond the cache mutex. This is
// the serving layer's brownout path: a saturated server keeps answering
// warm traffic from here while it sheds the cold traffic that would need
// an enumeration. A successful Lookup counts as a Hit.
func (c *Cache) Lookup(req Request) (*sim.Outcome, bool) {
	v, ok := c.LookupVerdict(req)
	return v.Outcome, ok
}

// LookupVerdict is Lookup returning the resident verdict whole, its
// kept body included.
func (c *Cache) LookupVerdict(req Request) (Verdict, bool) {
	key, completeKey := req.keys()
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.lookupLocked(key, completeKey); ok {
		return *v, true
	}
	return Verdict{}, false
}

// KeepBody keeps body with req's resident verdict, if that verdict is
// still out and keeps no body yet; LookupVerdict hands it to every later
// hit on the verdict, whichever request it comes from, so body must be a
// function of the verdict's key and outcome alone. A hit is not counted.
func (c *Cache) KeepBody(req Request, out *sim.Outcome, body []byte) {
	key, completeKey := req.keys()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, k := range [...]string{key, completeKey} {
		if e, ok := c.verdicts.get(k); ok {
			if v := e.(*Verdict); v.Outcome == out && v.Body == nil {
				v.Body = body
				return
			}
		}
	}
}

// Simulate answers req through the cache (see Run for the semantics of
// the boolean).
func (c *Cache) Simulate(ctx context.Context, req Request) (*sim.Outcome, bool, error) {
	key, completeKey := req.keys()
	c.mu.Lock()
	if v, ok := c.lookupLocked(key, completeKey); ok {
		c.mu.Unlock()
		return v.Outcome, true, nil
	}
	if cl, ok := c.inflight[key]; ok {
		c.stats.Waits++
		c.mu.Unlock()
		select {
		case <-cl.done:
			return cl.out, true, cl.err
		case <-ctx.Done():
			// The leader keeps simulating for the other waiters; only
			// this caller gives up.
			return nil, false, context.Cause(ctx)
		}
	}
	cl := &call{done: make(chan struct{})}
	c.inflight[key] = cl
	c.stats.Misses++
	c.mu.Unlock()

	var (
		out *sim.Outcome
		err error
	)
	// The leader must ALWAYS release its followers and its in-flight slot,
	// even when the model panics mid-simulation: without this a single
	// panic would poison the key forever (every later caller joins a call
	// that never completes). The panic is re-raised for the caller's own
	// containment (campaign.Run recovers per job); followers receive
	// ErrLeaderPanicked, and the next request for the key starts fresh.
	defer func() {
		r := recover()
		c.mu.Lock()
		delete(c.inflight, key)
		if r == nil && err == nil && cacheable(out) {
			storeKey := key
			if !out.Incomplete {
				// Complete verdicts are re-keyed timeout-free so every
				// timeout variant of this request finds them. Truncated
				// (but deterministic) outcomes keep the full key.
				storeKey = completeKey
			}
			c.stats.Evictions += uint64(c.verdicts.add(storeKey, &Verdict{Outcome: out}))
		}
		c.mu.Unlock()
		if r != nil {
			out, err = nil, fmt.Errorf("%w: %v", ErrLeaderPanicked, r)
		}
		cl.out, cl.err = out, err
		close(cl.done)
		if r != nil {
			panic(r)
		}
	}()
	out, err = c.simulate(ctx, req)
	return out, false, err
}

// simulate runs the cold path on a fresh compile of the test, released
// once the simulation returns. The request's trace gets the compile span
// and the simulation phases; the enumeration counters also roll up into
// the cache-wide aggregate when Options.Obs is set.
func (c *Cache) simulate(ctx context.Context, req Request) (*sim.Outcome, error) {
	stop := req.Obs.Phase(obs.PhaseCompile)
	p, err := exec.Compile(req.Test)
	stop()
	if err != nil {
		return nil, err
	}
	defer p.Release()
	tr := req.Obs
	if c.opts.Obs != nil && tr == nil {
		// The aggregate wants enumeration counters even when the caller
		// asked for no per-request trace.
		tr = obs.NewTrace()
	}
	out, err := sim.Simulate(ctx, sim.Request{
		Program: p,
		Checker: req.Model,
		Budget:  req.Budget,
		Options: sim.Options{Workers: c.opts.Workers},
		Obs:     tr,
	})
	c.opts.Obs.Merge(tr.Enum().Snapshot())
	return out, err
}

// cacheable decides whether an outcome is a function of its key alone.
// Complete outcomes are; so are outcomes truncated by the deterministic
// bounds (candidate or trace limits — enumeration order is fixed). An
// outcome truncated by the wall clock or a caller's cancellation depends
// on scheduling, so it is returned but never stored.
func cacheable(out *sim.Outcome) bool {
	if out == nil {
		return false
	}
	if !out.Incomplete {
		return true
	}
	var lim *exec.LimitError
	if errors.As(out.Reason, &lim) {
		return lim.Limit == "candidates" || lim.Limit == "traces"
	}
	return false
}

// Resolved is what the raw-bytes alias remembers about one (litmus
// source, model, budget) triple: everything a warm request needs from
// its source without parsing it.
type Resolved struct {
	// Key is Key(CanonicalTest(test), modelID, budget).
	Key string
	// CompleteKey is Key's timeout-free variant, where complete
	// outcomes are stored (equal to Key when the budget has no
	// timeout).
	CompleteKey string
	// Name is the test's declared name.
	Name string
}

// Resolve derives the verdict keys of the litmus source src under the
// request scope s, through the raw-bytes alias: the SHA-256 of the
// source, model identity and budget key maps to the keys derived the
// first time. Parsing and canonicalisation are deterministic, so the
// alias is a function of its key and cannot change a verdict; it only
// saves the work. The digest keeps every alias at 32 bytes however long
// its source (DESIGN.md §15).
//
// On a hit the returned test is nil: a caller that must simulate parses
// src itself. On a miss Resolve parses src, renders it canonically once
// and returns the parsed test with its keys. A source that fails to
// parse is never aliased, so its error reproduces on every call. The
// alias layer is bounded like the others, by the cache's maxEntries.
func (c *Cache) Resolve(src string, s Scope) (Resolved, *litmus.Test, error) {
	sum := digest(src, s.modelID, s.budgetKey)
	ak := string(sum[:])
	c.mu.Lock()
	if v, ok := c.aliases.get(ak); ok {
		c.stats.AliasHits++
		c.mu.Unlock()
		return *v.(*Resolved), nil, nil
	}
	c.stats.AliasMisses++
	c.mu.Unlock()
	t, err := litmus.Parse(src)
	if err != nil {
		return Resolved{}, nil, err
	}
	r := &Resolved{Name: t.Name}
	r.Key, r.CompleteKey = keysOf(CanonicalTest(t), s)
	c.mu.Lock()
	c.aliases.add(ak, r)
	c.mu.Unlock()
	return *r, t, nil
}

// Model compiles a cat model source, memoised on its SHA-256, so an inline
// model shipped with every API request is compiled once. Compile errors
// are not cached.
func (c *Cache) Model(src string) (*cat.Model, error) {
	key := sha256.Sum256([]byte(src))
	k := string(key[:])
	c.mu.Lock()
	if v, ok := c.models.get(k); ok {
		c.stats.ModelHits++
		c.mu.Unlock()
		return v.(*cat.Model), nil
	}
	c.mu.Unlock()
	m, err := cat.Compile(src)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.stats.ModelMisses++
	c.models.add(k, m)
	c.mu.Unlock()
	return m, nil
}

// --- bounded LRU -----------------------------------------------------------

// lruMap is a string-keyed LRU map. Not safe for concurrent use; the Cache
// serialises access under its mutex.
type lruMap struct {
	max   int
	ll    *list.List // front = most recently used
	byKey map[string]*list.Element
}

type lruEntry struct {
	key string
	val any
}

func newLRUMap(max int) *lruMap {
	return &lruMap{max: max, ll: list.New(), byKey: map[string]*list.Element{}}
}

func (m *lruMap) len() int { return m.ll.Len() }

// get fetches a value and marks it most recently used.
func (m *lruMap) get(key string) (any, bool) {
	e, ok := m.byKey[key]
	if !ok {
		return nil, false
	}
	m.ll.MoveToFront(e)
	return e.Value.(*lruEntry).val, true
}

// add inserts (or refreshes) a value and returns how many entries were
// evicted to stay within the bound.
func (m *lruMap) add(key string, val any) int {
	if e, ok := m.byKey[key]; ok {
		e.Value.(*lruEntry).val = val
		m.ll.MoveToFront(e)
		return 0
	}
	m.byKey[key] = m.ll.PushFront(&lruEntry{key: key, val: val})
	evicted := 0
	for m.ll.Len() > m.max {
		back := m.ll.Back()
		m.ll.Remove(back)
		delete(m.byKey, back.Value.(*lruEntry).key)
		evicted++
	}
	return evicted
}
