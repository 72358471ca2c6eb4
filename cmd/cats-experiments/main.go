// Command cats-experiments regenerates every table and figure of the
// paper's evaluation (Sec. 8–9) on the simulated substrate; EXPERIMENTS.md
// records the paper-vs-measured comparison.
//
// Usage:
//
//	cats-experiments -run all
//	cats-experiments -run table5 -minlen 3 -maxlen 4
//	cats-experiments -run figures
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"herdcats/internal/cat"
	"herdcats/internal/catalog"
	"herdcats/internal/experiments"
	"herdcats/internal/litmus"
	"herdcats/internal/sim"
)

func main() {
	run := flag.String("run", "all",
		"experiment: figures, table5, table6, table8, table9, table10, table11, table12, table13, table14, nodetour, debian, all")
	minLen := flag.Int("minlen", 3, "minimum diy cycle length")
	maxLen := flag.Int("maxlen", 4, "maximum diy cycle length")
	maxTests := flag.Int("max", 0, "cap on corpus size (0 = full)")
	units := flag.Int("units", 120, "synthetic Debian units")
	flag.Parse()

	all := *run == "all"
	start := time.Now()
	did := false
	for name, fn := range experimentsTable(*minLen, *maxLen, *maxTests, *units) {
		if all || *run == name {
			did = true
			fmt.Printf("== %s ==\n", name)
			if err := fn(); err != nil {
				fmt.Fprintf(os.Stderr, "cats-experiments: %s: %v\n", name, err)
				os.Exit(1)
			}
			fmt.Println()
		}
	}
	if !did {
		fmt.Fprintf(os.Stderr, "cats-experiments: unknown experiment %q\n", *run)
		os.Exit(2)
	}
	fmt.Printf("total time: %s\n", time.Since(start).Round(time.Millisecond))
}

func experimentsTable(minLen, maxLen, maxTests, units int) map[string]func() error {
	// Ordered execution: iterate a fixed key list in main? Maps are fine
	// here because we print the experiment name with each block.
	return map[string]func() error{
		"figures": figures,
		"table5": func() error {
			rows, err := experiments.Table5(minLen, maxLen, maxTests)
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderTable5(rows))
			return nil
		},
		"table6": func() error {
			rows, err := experiments.Table6()
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderTable6(rows))
			return nil
		},
		"table8": func() error {
			rows, err := experiments.Table8(minLen, maxLen, maxTests)
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderTable8(rows))
			return nil
		},
		"table9": func() error {
			c := experiments.BuildCorpus(litmus.PPC, minLen, maxLen, maxTests)
			big := experiments.BuildCorpus(litmus.PPC, 5, 6, 120)
			c.Tests = append(c.Tests, big.Tests...)
			rows, err := experiments.Table9(c, 1<<15)
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderTable9(rows))
			return nil
		},
		"table10": func() error {
			c := experiments.BuildCorpus(litmus.PPC, 5, 6, 80)
			rows, err := experiments.Table10(c, 1<<14)
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderTable10(rows))
			return nil
		},
		"table11": func() error {
			c := experiments.BuildCorpus(litmus.PPC, minLen, maxLen, maxTests)
			rows, err := experiments.Table11(c)
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderTable11(rows))
			return nil
		},
		"table12": func() error {
			rows, err := experiments.Table12()
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderTable12(rows))
			return nil
		},
		"table13": func() error {
			r, err := experiments.Table13()
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderMole(r))
			return nil
		},
		"table14": func() error {
			r, err := experiments.Table14()
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderMole(r))
			return nil
		},
		"nodetour": func() error {
			rows, err := experiments.NoDetour(minLen, maxLen, maxTests)
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderNoDetour(rows))
			return nil
		},
		"debian": func() error {
			rows, axioms, err := experiments.Debian(units, 7)
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderDebian(rows, axioms))
			return nil
		},
	}
}

// figures re-derives the allowed/forbidden verdict of every catalogued
// paper figure under every asserted model: the builtin cat model that
// declares the asserted name.
func figures() error {
	byName := map[string]*cat.Model{}
	for _, n := range cat.BuiltinNames() {
		m := cat.MustBuiltin(n)
		byName[m.Name()] = m
	}
	mismatches := 0
	for _, e := range catalog.Tests() {
		test := e.Test()
		names := make([]string, 0, len(e.Expect))
		for name := range e.Expect {
			names = append(names, name)
		}
		sort.Strings(names) // e.Expect is a map: print in a stable order
		for _, name := range names {
			want := e.Expect[name]
			m, ok := byName[name]
			if !ok {
				return fmt.Errorf("unknown model %q", name)
			}
			out, err := sim.Simulate(context.Background(), sim.Request{Test: test, Checker: m})
			if err != nil {
				return fmt.Errorf("%s: %v", e.Name, err)
			}
			status := "ok"
			if out.Allowed() != want {
				status = "MISMATCH"
				mismatches++
			}
			verdict := "Forbidden"
			if out.Allowed() {
				verdict = "Allowed"
			}
			fmt.Printf("%-34s %-10s %-10s %-9s %s\n", e.Name, e.Figure, name, verdict, status)
		}
	}
	if mismatches > 0 {
		return fmt.Errorf("%d figure verdicts mismatch", mismatches)
	}
	return nil
}
