package cat

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"herdcats/internal/events"
)

// TestCompileNeverPanics: Compile is total over arbitrary inputs.
func TestCompileNeverPanics(t *testing.T) {
	safe := func(src string) (panicked bool) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		_, _ = Compile(src)
		return false
	}
	f := func(data []byte) bool { return !safe(string(data)) }
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// Token-soup pass over the cat vocabulary.
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 1000; i++ {
		var src string
		for k := 0; k < 1+rng.Intn(12); k++ {
			src += catTokens[rng.Intn(len(catTokens))]
		}
		if safe(src) {
			t.Fatalf("Compile panicked on %q", src)
		}
	}
}

// catTokens is the cat vocabulary the token-soup tests draw from.
var catTokens = []string{
	"let", "rec", "and", "acyclic", "irreflexive", "empty", "as", "show",
	"po", "rf", "fr", "co", "po-loc", "rfe", "fre", "|", "&", ";", "\\",
	"+", "*", "?", "(", ")", "0", "~", "=", "x", "RR", "WW", "(*", "*)", "\"",
	" ", "\n",
}

// FuzzCatCompile: Compile never panics, and every model it accepts is
// lowered, and checks a small execution both compiled and interpreted,
// without panicking; a Result.Err is an answer. Seeded with the cat
// vocabulary, one token at a time and all together, and the builtin
// models.
func FuzzCatCompile(f *testing.F) {
	for _, tok := range catTokens {
		f.Add(tok)
	}
	f.Add(strings.Join(catTokens, " "))
	entries, err := catFiles.ReadDir("catfiles")
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		src, err := catFiles.ReadFile("catfiles/" + e.Name())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := Compile(src)
		if err != nil {
			return
		}
		_ = m.Interpreted().Check(tinyExecution())
		c, err := m.Compiled()
		if err != nil {
			return
		}
		ev := c.newEvaluator()
		defer ev.Release()
		_ = ev.Check(tinyExecution())
	})
}

// TestFixpointCap: a pathological recursive definition that keeps growing
// must hit the iteration cap rather than loop forever. All cat operators
// are monotone over a finite universe, so convergence is guaranteed; this
// guards the panic path with a hand-made infinite generator via Complement,
// which is NOT monotone — the evaluator must still terminate (by panicking
// or converging), never hang.
func TestFixpointNonMonotoneTerminates(t *testing.T) {
	m, err := Compile("let rec r = ~r\nacyclic r")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { recover() }() // a panic is acceptable; hanging is not
	_ = m.Check(tinyExecution())
}

// tinyExecution builds a 2-event execution for evaluator tests.
func tinyExecution() *events.Execution {
	x := events.NewExecution(2)
	x.Events = []events.Event{
		{ID: 0, Tid: 0, PC: 0, Kind: events.MemWrite, Loc: "x", Val: 1},
		{ID: 1, Tid: 0, PC: 1, Kind: events.MemRead, Loc: "x", Val: 1},
	}
	x.PO.Add(0, 1)
	x.RF.Add(0, 1)
	x.Derive()
	return x
}
