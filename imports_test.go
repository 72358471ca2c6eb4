package herdcats_bench

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// modulePackageImports parses the imports of every non-test Go file of
// the root module — nested modules (their own go.mod), testdata and
// hidden directories are skipped — and returns them by import path.
func modulePackageImports(t *testing.T) map[string]map[string]bool {
	t.Helper()
	const module = "herdcats"
	out := map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == "." {
				return nil
			}
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		pkg := path.Join(module, filepath.ToSlash(filepath.Dir(p)))
		if out[pkg] == nil {
			out[pkg] = map[string]bool{}
		}
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			out[pkg][ip] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestImportBoundaries pins which packages may reach which: the
// hand-written zoo is an oracle, so besides tests only crosscheck (its
// native-vs-cat pairs) and multi (the Power ppo seeds) import it; the
// multi-event checker is the cost model of Tab. IX and X, so only
// experiments imports it (mining decides CAV12 with power-cav.cat); the
// simulated hardware judges through cat files, with no relation algebra
// of its own; and core is the checker contract alone, over events.
func TestImportBoundaries(t *testing.T) {
	imports := modulePackageImports(t)
	zooImporters := map[string]bool{
		"herdcats/internal/models":     true,
		"herdcats/internal/crosscheck": true,
		"herdcats/internal/multi":      true,
	}
	for _, pkg := range []string{"herdcats/internal/models", "herdcats/internal/multi", "herdcats/internal/hardware", "herdcats/internal/core"} {
		if imports[pkg] == nil {
			t.Fatalf("package %s not found", pkg)
		}
	}
	for pkg, imps := range imports {
		if imps["herdcats/internal/models"] && !zooImporters[pkg] {
			t.Errorf("%s imports internal/models, the zoo oracle", pkg)
		}
		if imps["herdcats/internal/multi"] && pkg != "herdcats/internal/experiments" {
			t.Errorf("%s imports internal/multi: only the experiments measure the multi-event checker", pkg)
		}
	}
	if imports["herdcats/internal/hardware"]["herdcats/internal/rel"] {
		t.Error("internal/hardware imports internal/rel: its judgements belong in cat")
	}
	for imp := range imports["herdcats/internal/core"] {
		if strings.HasPrefix(imp, "herdcats/") && imp != "herdcats/internal/events" {
			t.Errorf("internal/core imports %s: it keeps the checker contract only", imp)
		}
	}
}
