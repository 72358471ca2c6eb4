package mine

import (
	"fmt"
	"net/http"
	"strings"

	"herdcats/internal/obs"
)

// register exposes the miner's counters on a registry as the mine_*
// metric families. The miner always counts into its own atomics; the
// registry reads them at exposition time through CounterFunc/GaugeFunc
// bridges, so a nil registry costs nothing and a daemon's /metrics always
// reflects the live campaign.
func (m *Miner) register(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("mine_tests_total", m.tests.Value)
	reg.CounterFunc("mine_resume_hits_total", m.resumeHits.Value)
	reg.CounterFunc("mine_pairs_checked_total", m.pairsChecked.Value)
	reg.CounterFunc("mine_agreements_total", m.agreements.Value)
	reg.CounterFunc("mine_disagreements_total", m.disagreements.Value)
	reg.CounterFunc("mine_decider_errors_total", m.deciderErrs.Value)
	reg.CounterFunc("mine_minimize_steps_total", m.minSteps.Value)
	reg.CounterFunc("mine_witnesses_total", m.witnesses.Value)
	reg.CounterFunc("mine_generate_rejects_total", m.genRejects.Value)
	reg.GaugeFunc("mine_workers", func() int64 { return int64(m.cfg.Workers) })
	if s := m.cfg.Store; s != nil {
		reg.GaugeFunc("mine_corpus_size", func() int64 { return int64(s.Len()) })
	}
	for _, p := range m.pairs {
		label := labelValue(p.String())
		reg.CounterFunc(fmt.Sprintf(`mine_pair_checked_total{pair="%s"}`, label),
			m.pairChecked[p.String()].Value)
		reg.CounterFunc(fmt.Sprintf(`mine_pair_disagreements_total{pair="%s"}`, label),
			m.pairDisagreed[p.String()].Value)
	}
}

// labelValue escapes a pair name for use as a Prometheus label value.
func labelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Handler serves the daemon's observation surface: GET /metrics with the
// Prometheus text exposition of the miner's registry, and GET /healthz.
// It mirrors internal/serve's endpoints so the same scrape/probe config
// works against herdd and mined.
func (m *Miner) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		m.cfg.Reg.WriteText(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}
