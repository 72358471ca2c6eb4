package experiments

import (
	"context"
	"fmt"
	"strings"

	"herdcats/internal/catalog"
	"herdcats/internal/crosscheck"
	"herdcats/internal/litmus"
)

// NoDetourRow reports the Sec. 8.2 ablation for one architecture: how many
// corpus tests become observable when rdw and detour are dropped from the
// preserved program order.
type NoDetourRow struct {
	Arch  string
	Tests int
	// Supplementary counts tests whose condition the static model allows
	// but the full model forbids.
	Supplementary int
	// Names lists them (they are few — that is the experiment's point).
	Names []string
}

// NoDetour reproduces the paper's closing experiment of Sec. 8.2: "we
// experimented with a weaker, more static, version of the preserved
// program order ... this leads to only 24 supplementary behaviours allowed
// on Power and 8 on ARM", suggesting rdw and detour may not be worth the
// ppo's complexity.
func NoDetour(minLen, maxLen, maxTests int) ([]NoDetourRow, error) {
	configs := []struct {
		arch         litmus.Arch
		full, static string
	}{
		{litmus.PPC, "power", "power-nodetour"},
		{litmus.ARM, "arm", "arm-nodetour"},
	}
	var rows []NoDetourRow
	for _, cfg := range configs {
		corpus := BuildCorpus(cfg.arch, minLen, maxLen, maxTests)
		// diy critical cycles visit each thread at most twice, which can
		// never exercise rdw or detour (those need three same-thread
		// accesses); the catalogue's rdw/detour tests supply the shapes
		// the paper's hand-curated corpus contained.
		for _, e := range catalog.Tests() {
			if t := e.Test(); t.Arch == cfg.arch {
				corpus.Tests = append(corpus.Tests, t)
			}
		}
		// The static ppo is weaker than the full one, so the pair expects
		// every behaviour the full model allows to stay allowed.
		full, static := crosscheck.MustCat(cfg.full), crosscheck.MustCat(cfg.static)
		pair := crosscheck.Pair{A: full, B: static, Rel: crosscheck.Subset}
		row := NoDetourRow{Arch: string(cfg.arch), Tests: len(corpus.Tests)}
		for _, t := range corpus.Tests {
			rep, err := compare(context.Background(), t, []crosscheck.Pair{pair})
			if err != nil {
				return nil, err
			}
			if len(rep.Disagreements) > 0 {
				return nil, fmt.Errorf("%s: static ppo forbids a behaviour the full ppo allows", t.Name)
			}
			if allowed(rep, static.Name()) && !allowed(rep, full.Name()) {
				row.Supplementary++
				if len(row.Names) < 30 {
					row.Names = append(row.Names, t.Name)
				}
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderNoDetour formats the ablation.
func RenderNoDetour(rows []NoDetourRow) string {
	var b strings.Builder
	b.WriteString("Sec. 8.2 ablation: ppo without rdw and detour\n")
	fmt.Fprintf(&b, "%-6s %8s %14s\n", "arch", "tests", "supplementary")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %8d %14d\n", r.Arch, r.Tests, r.Supplementary)
		for _, n := range r.Names {
			fmt.Fprintf(&b, "    %s\n", n)
		}
	}
	return b.String()
}
