package herdcats_bench

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTools compiles every command once into a temp dir and returns the
// binary paths; the CLI tests below drive real invocations end to end.
func buildTools(t *testing.T) map[string]string {
	t.Helper()
	dir := t.TempDir()
	out := map[string]string{}
	for _, name := range []string{"herd", "diy", "litmus7", "mole", "cats-experiments"} {
		bin := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
		cmd.Env = os.Environ()
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, b)
		}
		out[name] = bin
	}
	return out
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	b, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", bin, args, err, b)
	}
	return string(b)
}

// runExpectErr runs a binary that must exit nonzero and returns its
// combined output.
func runExpectErr(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	b, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("%s %v: expected nonzero exit\n%s", bin, args, b)
	}
	return string(b)
}

func TestCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skip binary builds")
	}
	tools := buildTools(t)

	t.Run("herd", func(t *testing.T) {
		out := run(t, tools["herd"], "-model", "power", "testdata/litmus/mp+lwsync+addr.litmus")
		if !strings.Contains(out, "Forbidden") {
			t.Errorf("herd output: %s", out)
		}
		out = run(t, tools["herd"], "-list-models")
		for _, m := range []string{"power", "sc", "tso", "arm", "arm-llh", "cpp-ra"} {
			if !strings.Contains(out, m) {
				t.Errorf("missing model %s in: %s", m, out)
			}
		}
		out = run(t, tools["herd"], "-cat", "internal/cat/catfiles/tso.cat", "testdata/litmus/sb.litmus")
		if !strings.Contains(out, "Allowed") {
			t.Errorf("sb should be TSO-allowed: %s", out)
		}
		out = run(t, tools["herd"], "-model", "power", "-explain", "testdata/litmus/sb+syncs.litmus")
		if !strings.Contains(out, "propagation") {
			t.Errorf("explain output: %s", out)
		}
		dotDir := t.TempDir()
		run(t, tools["herd"], "-model", "power", "-dot", dotDir, "testdata/litmus/mp.litmus")
		if _, err := os.Stat(filepath.Join(dotDir, "mp.dot")); err != nil {
			t.Errorf("dot file not written: %v", err)
		}

		// Robustness: a missing file is reported, the remaining files
		// still simulate, and the exit status is nonzero at the end.
		out = runExpectErr(t, tools["herd"], "-model", "power",
			"testdata/litmus/no-such-test.litmus", "testdata/litmus/mp.litmus")
		if !strings.Contains(out, "no-such-test") || !strings.Contains(out, "Allowed") {
			t.Errorf("herd should report the bad file and still run mp: %s", out)
		}

		// Budgeted parallel batch with a machine-readable report.
		out = run(t, tools["herd"], "-json", "-j", "2", "-timeout", "5s", "-model", "power",
			"testdata/litmus/mp.litmus", "testdata/litmus/sb.litmus")
		var rep struct {
			Jobs   []struct{ Name, Status string }
			Counts map[string]int
		}
		if err := json.Unmarshal([]byte(out), &rep); err != nil {
			t.Fatalf("-json output is not JSON: %v\n%s", err, out)
		}
		if len(rep.Jobs) != 2 || rep.Counts["OK"]+rep.Counts["Forbidden"] != 2 {
			t.Errorf("unexpected report: %+v", rep)
		}

		// A tiny candidate budget yields an Incomplete partial result,
		// not a hang or a hard failure.
		out = run(t, tools["herd"], "-json", "-max-candidates", "2", "-model", "power",
			"testdata/litmus/mp.litmus")
		if !strings.Contains(out, `"status": "Incomplete"`) || !strings.Contains(out, "budget exceeded") {
			t.Errorf("budgeted run should report Incomplete with a reason: %s", out)
		}
	})

	t.Run("diy", func(t *testing.T) {
		out := run(t, tools["diy"], "-arch", "PPC", "-cycle", "SyncdWW Rfe DpAddrdR Fre")
		if !strings.Contains(out, "lwzx") || !strings.Contains(out, "sync") {
			t.Errorf("diy single-cycle output: %s", out)
		}
		dir := t.TempDir()
		out = run(t, tools["diy"], "-arch", "ARM", "-minlen", "3", "-maxlen", "3", "-o", dir, "-max", "20")
		files, _ := os.ReadDir(dir)
		if len(files) != 20 {
			t.Errorf("diy wrote %d files, want 20 (%s)", len(files), out)
		}
	})

	t.Run("litmus7", func(t *testing.T) {
		out := run(t, tools["litmus7"], "-machine", "power7", "testdata/litmus/mp+lwsync+addr.litmus")
		if !strings.Contains(out, "power7") || !strings.Contains(out, "No") {
			t.Errorf("litmus7 output: %s", out)
		}
		out = run(t, tools["litmus7"], "-list-machines")
		if !strings.Contains(out, "tegra3") || !strings.Contains(out, "load-load-hazard") {
			t.Errorf("machine list: %s", out)
		}
	})

	t.Run("mole", func(t *testing.T) {
		out := run(t, tools["mole"], "-builtin", "rcu")
		if !strings.Contains(out, "mp") {
			t.Errorf("mole rcu output: %s", out)
		}
	})

	t.Run("cats-experiments", func(t *testing.T) {
		out := run(t, tools["cats-experiments"], "-run", "table12")
		if !strings.Contains(out, "RCU") || !strings.Contains(out, "true") {
			t.Errorf("table12 output: %s", out)
		}
	})

	// figures checks every catalogue test against every model it names;
	// two runs must print the same lines in the same order (the closing
	// wall-clock line aside).
	t.Run("cats-experiments-figures", func(t *testing.T) {
		figures := func() string {
			out := run(t, tools["cats-experiments"], "-run", "figures")
			if i := strings.LastIndex(out, "total time:"); i >= 0 {
				out = out[:i]
			}
			return out
		}
		first := figures()
		if second := figures(); second != first {
			t.Errorf("figures output differs between runs:\n%s\n---\n%s", first, second)
		}
		if strings.Contains(first, "MISMATCH") {
			t.Errorf("figures reports a mismatch:\n%s", first)
		}
	})
}
