package cat

import (
	"embed"
	"fmt"
	"sort"
	"strings"
	"sync"
)

//go:embed catfiles/*.cat
var catFiles embed.FS

var (
	loadOnce sync.Once
	loaded   map[string]*Model
	loadErr  error
)

func loadAll() {
	loaded = map[string]*Model{}
	entries, err := catFiles.ReadDir("catfiles")
	if err != nil {
		loadErr = err
		return
	}
	for _, e := range entries {
		data, err := catFiles.ReadFile("catfiles/" + e.Name())
		if err != nil {
			loadErr = err
			return
		}
		m, err := Compile(string(data))
		if err != nil {
			loadErr = fmt.Errorf("%s: %w", e.Name(), err)
			return
		}
		key := strings.TrimSuffix(e.Name(), ".cat")
		loaded[key] = m
	}
}

// Builtin returns the embedded model compiled from catfiles/<name>.cat
// (e.g. "power", "sc", "tso", "arm", "arm-llh", "power-arm").
func Builtin(name string) (*Model, error) {
	loadOnce.Do(loadAll)
	if loadErr != nil {
		return nil, loadErr
	}
	m, ok := loaded[name]
	if !ok {
		return nil, fmt.Errorf("cat: no builtin model %q (have %s)",
			name, strings.Join(BuiltinNames(), ", "))
	}
	return m, nil
}

// MustBuiltin is Builtin for names fixed in the program, where a missing
// model is a programming error.
func MustBuiltin(name string) *Model {
	m, err := Builtin(name)
	if err != nil {
		panic(err)
	}
	return m
}

// BuiltinNames lists the embedded models in sorted order.
func BuiltinNames() []string {
	loadOnce.Do(loadAll)
	names := make([]string, 0, len(loaded))
	for n := range loaded {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
