package memo_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"herdcats/internal/catalog"
	"herdcats/internal/core"
	"herdcats/internal/events"
	"herdcats/internal/exec"
	"herdcats/internal/litmus"
	"herdcats/internal/memo"
	"herdcats/internal/models"
	"herdcats/internal/sim"
)

func mustTest(t *testing.T, name string) *litmus.Test {
	t.Helper()
	e, ok := catalog.ByName(name)
	if !ok {
		t.Fatalf("catalogue has no test %q", name)
	}
	return e.Test()
}

// TestKeyDigest pins Key to the SHA-256 over one buffer holding the
// length-prefixed fields, for fields shorter and longer than the window
// the digest streams them through: keys are echoed to clients, so the
// streaming must not move one.
func TestKeyDigest(t *testing.T) {
	b := exec.Budget{MaxCandidates: 7, Timeout: time.Second}
	for _, n := range []int{0, 1, 247, 248, 249, 255, 256, 257, 600, 5000} {
		test := strings.Repeat("t", n)
		modelID := "name:" + strings.Repeat("m", n/3)
		var buf []byte
		for _, field := range []string{test, modelID, b.Key()} {
			buf = binary.BigEndian.AppendUint64(buf, uint64(len(field)))
			buf = append(buf, field...)
		}
		sum := sha256.Sum256(buf)
		if got, want := memo.Key(test, modelID, b), hex.EncodeToString(sum[:]); got != want {
			t.Errorf("test of %d bytes: Key = %s, want %s", n, got, want)
		}
	}
}

// TestKeyCanonicalisation: sources that parse to the same test share a key;
// any input of the triple changing changes the key.
func TestKeyCanonicalisation(t *testing.T) {
	a := litmus.MustParse(`X86 sb
{ }
 P0 | P1 ;
 MOV [x],$1 | MOV [y],$1 ;
 MOV EAX,[y] | MOV EAX,[x] ;
exists (0:EAX=0 /\ 1:EAX=0)`)
	b := litmus.MustParse(`X86 sb   (* store buffering, reformatted *)
{
}
 P0          | P1 ;
 MOV [x],$1  | MOV [y],$1 ;
 MOV EAX,[y] | MOV EAX,[x] ;
exists (0:EAX=0 /\ 1:EAX=0)`)
	if memo.CanonicalTest(a) != memo.CanonicalTest(b) {
		t.Fatalf("canonical forms differ:\n%s\nvs\n%s", memo.CanonicalTest(a), memo.CanonicalTest(b))
	}
	base := memo.Key(memo.CanonicalTest(a), "name:TSO", exec.Budget{})
	if got := memo.Key(memo.CanonicalTest(b), "name:TSO", exec.Budget{}); got != base {
		t.Fatal("equivalent sources produced different keys")
	}
	if memo.Key(memo.CanonicalTest(a), "name:SC", exec.Budget{}) == base {
		t.Fatal("model identity not part of the key")
	}
	if memo.Key(memo.CanonicalTest(a), "name:TSO", exec.Budget{MaxCandidates: 7}) == base {
		t.Fatal("budget not part of the key")
	}
}

// TestModelID: cat models are identified by content, native models by name.
func TestModelID(t *testing.T) {
	if id := memo.ModelID(models.TSO); id != "name:TSO" {
		t.Fatalf("ModelID(TSO) = %q", id)
	}
	static := memo.ModelID(models.PowerStatic)
	full := memo.ModelID(models.Power)
	if static == full {
		t.Fatalf("static and full Power models share identity %q", full)
	}
}

// TestHitMissAndSharing: the second identical run is a hit and performs no
// model work; a distinct model on the same test is a verdict of its own.
func TestHitMissAndSharing(t *testing.T) {
	c := memo.New(0)
	test := mustTest(t, "mp")
	ctx := context.Background()

	out1, cached, err := c.Run(ctx, test, models.Power, exec.Budget{})
	if err != nil || cached {
		t.Fatalf("first run: cached=%v err=%v", cached, err)
	}
	out2, cached, err := c.Run(ctx, test, models.Power, exec.Budget{})
	if err != nil || !cached {
		t.Fatalf("second run: cached=%v err=%v", cached, err)
	}
	if out1 != out2 {
		t.Fatal("cached run returned a different outcome object")
	}

	// A different model on the same test must simulate again.
	if _, cached, err = c.Run(ctx, test, models.SC, exec.Budget{}); err != nil || cached {
		t.Fatalf("distinct model: cached=%v err=%v", cached, err)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 2 || s.Waits != 0 {
		t.Fatalf("stats = %+v, want hits=1 misses=2 waits=0", s)
	}
}

// TestLRUEviction: the verdict layer stays within its bound and re-running
// an evicted triple is a miss again.
func TestLRUEviction(t *testing.T) {
	c := memo.New(2)
	ctx := context.Background()
	names := []string{"coWW", "coWR", "coRW1"}
	for _, n := range names {
		if _, _, err := c.Run(ctx, mustTest(t, n), models.SC, exec.Budget{}); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.Entries != 2 || s.Evictions != 1 {
		t.Fatalf("stats = %+v, want entries=2 evictions=1", s)
	}
	// coWW was least recently used → evicted → miss again.
	if _, cached, err := c.Run(ctx, mustTest(t, "coWW"), models.SC, exec.Budget{}); err != nil || cached {
		t.Fatalf("evicted entry served from cache (cached=%v err=%v)", cached, err)
	}
}

// TestDeterministicIncompleteCached: an outcome truncated by the candidate
// budget is reproducible, so it is cached; a canceled run is not.
func TestDeterministicIncompleteCached(t *testing.T) {
	c := memo.New(0)
	test := mustTest(t, "mp")
	b := exec.Budget{MaxCandidates: 1}

	out, _, err := c.Run(context.Background(), test, models.Power, b)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Incomplete {
		t.Fatal("candidate budget of 1 should truncate mp")
	}
	if _, cached, _ := c.Run(context.Background(), test, models.Power, b); !cached {
		t.Fatal("budget-truncated outcome was not cached")
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	out, _, err = c.Run(canceled, test, models.Power, exec.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Incomplete {
		t.Fatal("canceled run should be incomplete")
	}
	if _, cached, _ := c.Run(context.Background(), test, models.Power, exec.Budget{}); cached {
		t.Fatal("canceled (non-reproducible) outcome was cached")
	}
}

// TestModelMemoised: inline cat sources compile once per distinct source.
func TestModelMemoised(t *testing.T) {
	c := memo.New(0)
	src := `demo
let com = rf | co | fr
acyclic po | com as sc`
	m1, err := c.Model(src)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := c.Model(src)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatal("same source compiled twice")
	}
	if _, err := c.Model("not a model ("); err == nil {
		t.Fatal("bad source must not compile")
	}
	s := c.Stats()
	if s.ModelMisses != 1 || s.ModelHits != 1 {
		t.Fatalf("model stats = %+v", s)
	}
}

// gateChecker blocks its first Check call until released, so a test can
// hold a simulation in flight while concurrent duplicates pile up.
type gateChecker struct {
	started chan struct{}
	release chan struct{}
	once    sync.Once
	calls   atomic.Int64
}

func (g *gateChecker) Name() string { return "gate" }

func (g *gateChecker) Check(*events.Execution) core.Result {
	g.calls.Add(1)
	g.once.Do(func() { close(g.started) })
	<-g.release
	return core.Result{Valid: true}
}

// TestSingleflightDeduplication is the dedup proof: N concurrent identical
// requests perform exactly one simulation (Misses == 1) while the other
// N-1 join the in-flight leader (Waits == N-1) and receive the same
// outcome.
func TestSingleflightDeduplication(t *testing.T) {
	const n = 8
	c := memo.New(0)
	test := mustTest(t, "mp")
	gate := &gateChecker{started: make(chan struct{}), release: make(chan struct{})}

	outs := make([]*sim.Outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, _, err := c.Run(context.Background(), test, gate, exec.Budget{})
			if err != nil {
				t.Errorf("request %d: %v", i, err)
			}
			outs[i] = out
		}(i)
	}

	<-gate.started // the leader is inside the simulation
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().Waits != n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d duplicates joined the in-flight run", c.Stats().Waits, n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate.release)
	wg.Wait()

	s := c.Stats()
	if s.Misses != 1 {
		t.Fatalf("singleflight counter: %d simulations, want exactly 1 (stats %+v)", s.Misses, s)
	}
	if s.Waits != n-1 || s.Hits != 0 {
		t.Fatalf("stats = %+v, want waits=%d hits=0", s, n-1)
	}
	if s.Inflight != 0 {
		t.Fatalf("inflight = %d after completion", s.Inflight)
	}
	for i := 1; i < n; i++ {
		if outs[i] != outs[0] {
			t.Fatalf("request %d received a different outcome", i)
		}
	}
}

// TestWaiterCancellation: a waiter whose context dies abandons the wait
// with its context's error; the leader is unaffected.
func TestWaiterCancellation(t *testing.T) {
	c := memo.New(0)
	test := mustTest(t, "mp")
	gate := &gateChecker{started: make(chan struct{}), release: make(chan struct{})}

	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Run(context.Background(), test, gate, exec.Budget{})
		leaderDone <- err
	}()
	<-gate.started

	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := c.Run(ctx, test, gate, exec.Budget{})
		waiterDone <- err
	}()
	for c.Stats().Waits != 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-waiterDone; err == nil {
		t.Fatal("canceled waiter returned no error")
	}
	close(gate.release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader failed: %v", err)
	}
}

// TestWaiterCancellationPrompt pins the follower contract: a single-flight
// follower whose context dies returns within milliseconds carrying its own
// context's cause — it must never sit out the leader's (possibly very
// long) simulation.
func TestWaiterCancellationPrompt(t *testing.T) {
	c := memo.New(0)
	test := mustTest(t, "mp")
	gate := &gateChecker{started: make(chan struct{}), release: make(chan struct{})}

	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Run(context.Background(), test, gate, exec.Budget{})
		leaderDone <- err
	}()
	<-gate.started // the leader is stuck inside the simulation

	ctx, cancel := context.WithCancel(context.Background())
	type res struct {
		cached bool
		err    error
	}
	waiterDone := make(chan res, 1)
	go func() {
		_, cached, err := c.Run(ctx, test, gate, exec.Budget{})
		waiterDone <- res{cached, err}
	}()
	for c.Stats().Waits != 1 {
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	cancel()
	select {
	case r := <-waiterDone:
		if !errors.Is(r.err, context.Canceled) {
			t.Fatalf("follower error = %v, want its context.Canceled", r.err)
		}
		if r.cached {
			t.Fatal("abandoned follower claimed a cached result")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled follower still waiting on the leader")
	}
	if waited := time.Since(start); waited > time.Second {
		t.Errorf("follower took %v to notice its cancellation", waited)
	}
	close(gate.release) // the leader, untouched, finishes normally
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader failed: %v", err)
	}
}

// panicOnceChecker panics on its first simulation and behaves on later
// ones, modelling a model bug that one retry would clear.
type panicOnceChecker struct {
	started chan struct{} // closed when the panicking call is entered
	release chan struct{} // gates the panic so a follower can join first
	calls   atomic.Int64
}

func (p *panicOnceChecker) Name() string { return "panic-once" }

func (p *panicOnceChecker) Check(*events.Execution) core.Result {
	if p.calls.Add(1) == 1 {
		close(p.started)
		<-p.release
		panic("injected checker panic")
	}
	return core.Result{Valid: true}
}

// TestLeaderPanicDoesNotPoisonKey: a leader that panics must re-raise the
// panic to its own caller, hand every follower ErrLeaderPanicked promptly,
// and leave the key immediately retryable — the next request simulates
// fresh instead of joining a corpse.
func TestLeaderPanicDoesNotPoisonKey(t *testing.T) {
	c := memo.New(0)
	test := mustTest(t, "mp")
	chk := &panicOnceChecker{started: make(chan struct{}), release: make(chan struct{})}

	leaderPanic := make(chan any, 1)
	go func() {
		defer func() { leaderPanic <- recover() }()
		_, _, _ = c.Run(context.Background(), test, chk, exec.Budget{})
	}()
	<-chk.started

	followerErr := make(chan error, 1)
	go func() {
		_, _, err := c.Run(context.Background(), test, chk, exec.Budget{})
		followerErr <- err
	}()
	for c.Stats().Waits != 1 {
		time.Sleep(time.Millisecond)
	}
	close(chk.release) // let the leader panic now

	if r := <-leaderPanic; r == nil {
		t.Fatal("leader's panic was swallowed instead of re-raised")
	}
	select {
	case err := <-followerErr:
		if !errors.Is(err, memo.ErrLeaderPanicked) {
			t.Fatalf("follower error = %v, want ErrLeaderPanicked", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower still waiting: the leader's panic poisoned the key")
	}

	// The key is free again: a later caller simulates fresh and succeeds
	// (the checker only panics once).
	out, cached, err := c.Run(context.Background(), test, chk, exec.Budget{})
	if err != nil || cached || out == nil {
		t.Fatalf("post-panic run: out=%v cached=%v err=%v, want a fresh simulation", out, cached, err)
	}
	if s := c.Stats(); s.Inflight != 0 {
		t.Fatalf("inflight = %d after the panic settled, want 0", s.Inflight)
	}
}

// TestLookupPeeks: Lookup serves resident verdicts (counting a Hit, with
// cross-timeout semantics intact) but never simulates, never joins an
// in-flight leader, and never blocks.
func TestLookupPeeks(t *testing.T) {
	c := memo.New(0)
	test := mustTest(t, "mp")

	if _, ok := c.Lookup(memo.Request{Test: test, Model: models.Power}); ok {
		t.Fatal("Lookup hit an empty cache")
	}
	if s := c.Stats(); s.Misses != 0 {
		t.Fatalf("a Lookup miss must not count as a simulation: %+v", s)
	}

	out, _, err := c.Run(context.Background(), test, models.Power, exec.Budget{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c.Lookup(memo.Request{Test: test, Model: models.Power, Budget: exec.Budget{Timeout: time.Minute}})
	if !ok || got != out {
		t.Fatalf("Lookup missed a resident verdict (ok=%v)", ok)
	}
	// Cross-timeout: the complete verdict answers any timeout variant.
	if _, ok := c.Lookup(memo.Request{Test: test, Model: models.Power, Budget: exec.Budget{Timeout: time.Hour}}); !ok {
		t.Fatal("Lookup did not honour cross-timeout hits")
	}

	// While a simulation is in flight, Lookup must return immediately
	// with a miss rather than join the leader.
	gate := &gateChecker{started: make(chan struct{}), release: make(chan struct{})}
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		_, _, _ = c.Run(context.Background(), mustTest(t, "sb"), gate, exec.Budget{})
	}()
	<-gate.started
	start := time.Now()
	if _, ok := c.Lookup(memo.Request{Test: mustTest(t, "sb"), Model: gate}); ok {
		t.Fatal("Lookup returned an in-flight (unfinished) simulation")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Lookup blocked for %v on an in-flight key", d)
	}
	close(gate.release)
	<-leaderDone
}

// TestCrossTimeoutHit is the cache-key regression: a COMPLETE verdict
// computed under one timeout must be served to the same request made with
// any other timeout (the outcome cannot depend on a deadline it beat),
// while truncated outcomes stay confined to their exact budget key.
func TestCrossTimeoutHit(t *testing.T) {
	c := memo.New(0)
	test := mustTest(t, "mp")
	ctx := context.Background()

	out1, cached, err := c.Run(ctx, test, models.Power, exec.Budget{Timeout: time.Minute})
	if err != nil || cached {
		t.Fatalf("first run: cached=%v err=%v", cached, err)
	}
	if out1.Incomplete {
		t.Fatal("mp under a minute should complete")
	}
	for _, timeout := range []time.Duration{time.Hour, 0, 30 * time.Second} {
		out2, cached, err := c.Run(ctx, test, models.Power, exec.Budget{Timeout: timeout})
		if err != nil || !cached {
			t.Fatalf("timeout=%v: cached=%v err=%v", timeout, cached, err)
		}
		if out2 != out1 {
			t.Fatalf("timeout=%v: served a different outcome object", timeout)
		}
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 3 || s.CrossTimeoutHits != 2 {
		t.Fatalf("stats = %+v, want misses=1 hits=3 cross_timeout_hits=2", s)
	}

	// A candidate-truncated outcome is keyed with its timeout: the same
	// bounds under a different timeout must simulate again, and the
	// timeout-free entry it does store must never satisfy a
	// timeout-bearing request.
	tb := exec.Budget{MaxCandidates: 1}
	out, _, err := c.Run(ctx, test, models.Power, tb)
	if err != nil || !out.Incomplete {
		t.Fatalf("truncated run: out=%+v err=%v", out, err)
	}
	tb.Timeout = time.Minute
	if _, cached, err := c.Run(ctx, test, models.Power, tb); err != nil || cached {
		t.Fatalf("truncated outcome crossed timeouts: cached=%v err=%v", cached, err)
	}
}

// TestOptionsPreserveOutcome: a parallel cache returns the same verdict
// and candidate count as a plain one.
func TestOptionsPreserveOutcome(t *testing.T) {
	plain := memo.New(0)
	tuned := memo.NewWithOptions(0, memo.Options{Workers: 4})
	ctx := context.Background()
	for _, name := range []string{"mp", "sb", "iriw"} {
		test := mustTest(t, name)
		for _, m := range []sim.Checker{models.SC, models.Power, models.ARMllh} {
			a, _, err := plain.Run(ctx, test, m, exec.Budget{})
			if err != nil {
				t.Fatal(err)
			}
			b, _, err := tuned.Run(ctx, test, m, exec.Budget{})
			if err != nil {
				t.Fatal(err)
			}
			if a.Valid != b.Valid || a.CondObserved != b.CondObserved || a.OK() != b.OK() {
				t.Errorf("%s/%s: tuned cache changed the verdict", name, m.Name())
			}
			if b.Candidates != a.Candidates {
				t.Errorf("%s/%s: tuned cache changed candidates %d -> %d", name, m.Name(), a.Candidates, b.Candidates)
			}
		}
	}
}

// TestResolveAlias: Resolve parses a source once per (bytes, model,
// budget). A hit returns the keys and name the miss derived, without a
// test; a parse failure is never aliased; and the resolved keys address
// the same verdicts as keys derived from the parsed test, so a Lookup
// carrying both needs no test at all.
func TestResolveAlias(t *testing.T) {
	c := memo.New(0)
	e, ok := catalog.ByName("mp")
	if !ok {
		t.Fatal("catalogue has no mp")
	}
	src := e.Source
	modelID := memo.ModelID(models.Power)
	b := exec.Budget{Timeout: time.Minute}

	miss, test, err := c.Resolve(src, memo.NewScope(modelID, b))
	if err != nil || test == nil {
		t.Fatalf("first Resolve: test=%v err=%v, want the parsed test", test, err)
	}
	free := b
	free.Timeout = 0
	if want := memo.Key(memo.CanonicalTest(test), modelID, b); miss.Key != want {
		t.Errorf("Key = %s, want %s", miss.Key, want)
	}
	if want := memo.Key(memo.CanonicalTest(test), modelID, free); miss.CompleteKey != want {
		t.Errorf("CompleteKey = %s, want the timeout-free %s", miss.CompleteKey, want)
	}
	if miss.Name != test.Name {
		t.Errorf("Name = %q, want %q", miss.Name, test.Name)
	}
	hit, again, err := c.Resolve(src, memo.NewScope(modelID, b))
	if err != nil || again != nil || hit != miss {
		t.Fatalf("second Resolve: %+v test=%v err=%v, want %+v from the alias", hit, again, err, miss)
	}
	if other, _, _ := c.Resolve(src, memo.NewScope(modelID, free)); other.Key != miss.CompleteKey {
		t.Error("another budget was answered from the first budget's alias")
	}

	for i := 0; i < 2; i++ {
		if _, _, err := c.Resolve("not litmus", memo.NewScope(modelID, b)); err == nil {
			t.Fatal("Resolve accepted a source that does not parse")
		}
	}
	if s := c.Stats(); s.AliasHits != 1 || s.AliasMisses != 4 || s.Aliases != 2 {
		t.Errorf("stats = %+v, want alias hits 1, misses 4 (parse failures never alias), 2 resident", s)
	}

	// Complete outcomes live under CompleteKey: a Lookup with both keys
	// and no test finds the verdict a keyed Simulate stored.
	out, _, err := c.Simulate(context.Background(), memo.Request{
		Key: miss.Key, CompleteKey: miss.CompleteKey, Test: test, Model: models.Power, Budget: b,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Lookup(memo.Request{Key: hit.Key, CompleteKey: hit.CompleteKey, Model: models.Power, Budget: b}); !ok || got != out {
		t.Fatalf("test-free Lookup: ok=%v, want the stored outcome", ok)
	}
	if got, ok := c.Lookup(memo.Request{Test: test, Model: models.Power, Budget: exec.Budget{Timeout: time.Hour}}); !ok || got != out {
		t.Fatalf("cross-timeout Lookup: ok=%v, want the stored outcome", ok)
	}
}

// TestVerdictBody: a body kept with a resident verdict is handed to
// every later hit on it (a cross-timeout one included) and evicted with
// the verdict; it is kept only with the outcome it was rendered from,
// and only once.
func TestVerdictBody(t *testing.T) {
	c := memo.New(1)
	ctx := context.Background()
	mp, sb := mustTest(t, "mp"), mustTest(t, "sb")
	req := memo.Request{Test: mp, Model: models.Power, Budget: exec.Budget{Timeout: time.Minute}}
	out, _, err := c.Simulate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := c.LookupVerdict(req); !ok || v.Outcome != out || v.Body != nil {
		t.Fatalf("LookupVerdict = (%+v, %v), want the outcome and no body yet", v, ok)
	}
	c.KeepBody(req, &sim.Outcome{}, []byte("another outcome's"))
	c.KeepBody(req, out, []byte("mp"))
	c.KeepBody(req, out, []byte("again"))
	for _, b := range []exec.Budget{{Timeout: time.Minute}, {Timeout: time.Hour}, {}} {
		v, ok := c.LookupVerdict(memo.Request{Test: mp, Model: models.Power, Budget: b})
		if !ok || v.Outcome != out || string(v.Body) != "mp" {
			t.Fatalf("budget %+v: LookupVerdict = (%+v, %v), want the outcome and the first body kept", b, v, ok)
		}
	}
	hits := c.Stats().Hits

	if _, _, err := c.Simulate(ctx, memo.Request{Test: sb, Model: models.Power}); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.LookupVerdict(req); ok {
		t.Fatal("mp still resident in a one-entry cache")
	}
	c.KeepBody(req, out, []byte("mp"))
	if v, ok := c.LookupVerdict(memo.Request{Test: sb, Model: models.Power}); !ok || v.Body != nil {
		t.Fatalf("sb: LookupVerdict = (%+v, %v), want the verdict without a body", v, ok)
	}
	if got := c.Stats().Hits; got != hits+1 {
		t.Errorf("%d hits after one more lookup hit, want %d: KeepBody counts none", got, hits+1)
	}
}
