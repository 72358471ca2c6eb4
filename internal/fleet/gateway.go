package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"herdcats/internal/cat"
	"herdcats/internal/litmus"
	"herdcats/internal/memo"
	"herdcats/internal/obs"
	"herdcats/internal/wire"
)

// GatewayConfig tunes a Gateway. Backends is required; everything else
// has documented defaults.
type GatewayConfig struct {
	// Backends are the herdd base URLs the gateway routes across.
	Backends []string

	// Policy is the per-backend client resilience policy.
	Policy Policy

	// ProbeInterval spaces the /healthz probes per backend
	// (<= 0 selects 1s).
	ProbeInterval time.Duration

	// BreakerThreshold and BreakerCooldown configure each backend's
	// circuit breaker (zero values select the Breaker defaults).
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// MaxRequestBytes bounds a request body (<= 0 selects 4 MiB).
	MaxRequestBytes int64

	// HeartbeatInterval spaces the heartbeat frames on an idle merged
	// stream (<= 0 selects 10s).
	HeartbeatInterval time.Duration

	// HTTPClient overrides the transport shared by the backend clients
	// (nil selects a pooling default) — tests inject httptest transports
	// here.
	HTTPClient *http.Client
}

func (c GatewayConfig) probeInterval() time.Duration {
	if c.ProbeInterval <= 0 {
		return time.Second
	}
	return c.ProbeInterval
}

func (c GatewayConfig) maxRequestBytes() int64 {
	if c.MaxRequestBytes <= 0 {
		return 4 << 20
	}
	return c.MaxRequestBytes
}

func (c GatewayConfig) heartbeatInterval() time.Duration {
	if c.HeartbeatInterval <= 0 {
		return 10 * time.Second
	}
	return c.HeartbeatInterval
}

// gwBackend is one routed-to herdd: its client, its circuit breaker, and
// the last probe's verdict.
type gwBackend struct {
	name    string // base URL; doubles as the rendezvous identity
	client  *Client
	breaker *Breaker
}

// Gateway routes litmus verdicts across a herdd fleet. Every request's
// verdict key (the same memo.Key the backends cache under) picks its
// home backend by rendezvous hashing, so repeated requests for one test
// land on one backend's warm cache; an unhealthy or ejected home fails
// over along the key's deterministic backend ranking. Duplicate keys
// share a home backend, whose memo single-flight joins them, and a
// /healthz probe loop feeds each backend's circuit breaker out-of-band.
type Gateway struct {
	cfg      GatewayConfig
	backends map[string]*gwBackend
	names    []string     // sorted, fixed at construction
	ordered  []*gwBackend // the backends of names, in its order
	models   *memo.Cache  // inline cat sources and the raw-bytes key alias
	mux      *http.ServeMux
	reg      *obs.Registry

	probeCancel context.CancelFunc
	probes      sync.WaitGroup
}

// NewGateway builds the gateway and starts its health-probe loops; call
// Close to stop them.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("gateway: at least one backend is required")
	}
	g := &Gateway{
		cfg:      cfg,
		backends: make(map[string]*gwBackend, len(cfg.Backends)),
		models:   memo.New(0),
		reg:      obs.NewRegistry(),
	}
	for _, raw := range cfg.Backends {
		c := NewClient(raw, cfg.Policy, cfg.HTTPClient)
		name := c.Base()
		if _, dup := g.backends[name]; dup {
			return nil, fmt.Errorf("gateway: duplicate backend %s", name)
		}
		g.backends[name] = &gwBackend{
			name:    name,
			client:  c,
			breaker: &Breaker{Threshold: cfg.BreakerThreshold, Cooldown: cfg.BreakerCooldown},
		}
		g.names = append(g.names, name)
	}
	sort.Strings(g.names)
	for _, name := range g.names {
		g.ordered = append(g.ordered, g.backends[name])
	}

	g.mux = http.NewServeMux()
	g.mux.HandleFunc("POST /v1/run", g.handleRun)
	g.mux.HandleFunc("POST /v1/batch", g.handleBatch)
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /metrics", g.handleMetrics)
	g.mux.HandleFunc("GET /gw/backends", g.handleBackends)
	g.registerMetrics()

	ctx, cancel := context.WithCancel(context.Background())
	g.probeCancel = cancel
	for _, b := range g.backends {
		g.probes.Add(1)
		go g.probeLoop(ctx, b)
	}
	return g, nil
}

// Close stops the health-probe loops.
func (g *Gateway) Close() {
	g.probeCancel()
	g.probes.Wait()
}

// Handler returns the gateway's HTTP handler.
func (g *Gateway) Handler() http.Handler { return g.mux }

// Metrics exposes the gateway's registry (for tests and embedding).
func (g *Gateway) Metrics() *obs.Registry { return g.reg }

func (g *Gateway) registerMetrics() {
	// Pre-create the bounded label sets so every series renders at 0.
	for _, name := range g.names {
		name := name
		g.reg.Counter(`gw_backend_requests_total{backend="` + name + `"}`)
		g.reg.Counter(`gw_backend_failures_total{backend="` + name + `"}`)
		g.reg.GaugeFunc(`gw_backend_open{backend="`+name+`"}`, func() int64 {
			if g.backends[name].breaker.State() != BreakerClosed {
				return 1
			}
			return 0
		})
	}
	g.reg.Counter("gw_reroutes_total")
	g.reg.CounterFunc("gw_alias_hits_total", func() uint64 { return g.models.Stats().AliasHits })
	g.reg.CounterFunc("gw_alias_misses_total", func() uint64 { return g.models.Stats().AliasMisses })
}

// probeLoop health-checks one backend until the gateway closes, feeding
// the circuit breaker out-of-band so a dead backend is ejected even with
// no traffic, and a recovered one is readmitted without sacrificing a
// live request to find out.
func (g *Gateway) probeLoop(ctx context.Context, b *gwBackend) {
	defer g.probes.Done()
	tick := time.NewTicker(g.cfg.probeInterval())
	defer tick.Stop()
	for {
		pctx, cancel := context.WithTimeout(ctx, g.cfg.probeInterval())
		err := b.client.Healthz(pctx)
		cancel()
		if ctx.Err() != nil {
			return
		}
		if err != nil {
			b.breaker.Failure()
		} else {
			b.breaker.Success()
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			return
		}
	}
}

// verdictKey computes a row's routing key under its request's scope:
// the same content address the backends cache under, except that the
// budget is taken as-sent (the gateway cannot know each backend's
// clamp). Used only for placement — the authoritative key comes back in
// the response. The key goes through the raw-bytes alias in g.models,
// so a repeated source is parsed once; routing still uses the canonical
// key, so byte-different but canonically equal tests meet on one home
// backend. merr is the request's model error: a bad litmus test is
// reported before it.
func (g *Gateway) verdictKey(src string, s memo.Scope, merr *Error) (string, *Error) {
	if merr != nil {
		if _, err := litmus.Parse(src); err != nil {
			return "", litmusError(err)
		}
		return "", merr
	}
	keys, _, err := g.models.Resolve(src, s)
	if err != nil {
		return "", litmusError(err)
	}
	return keys.Key, nil
}

// scope renders what every row of a request shares in its routing key:
// the model identity and the budget as sent.
func (g *Gateway) scope(model wire.ModelSpec, budget wire.BudgetSpec) (memo.Scope, *Error) {
	modelID, merr := g.modelID(model)
	if merr != nil {
		return memo.Scope{}, merr
	}
	return memo.NewScope(modelID, budget.Budget()), nil
}

// litmusError is the envelope for a request whose litmus source does not
// parse: the same status, code and message herdd answers with.
func litmusError(err error) *Error {
	return classify(http.StatusBadRequest, "bad_request", fmt.Sprintf("litmus: %v", err), err)
}

// modelID resolves a request's model to its cache identity.
func (g *Gateway) modelID(spec wire.ModelSpec) (string, *Error) {
	switch {
	case spec.Name != "":
		m, err := cat.Builtin(spec.Name)
		if err != nil {
			return "", classify(http.StatusNotFound, "not_found", fmt.Sprintf("model: %v", err), err)
		}
		return memo.ModelID(m), nil
	case spec.Cat != "":
		m, err := g.models.Model(spec.Cat)
		if err != nil {
			return "", classify(http.StatusBadRequest, "bad_request", fmt.Sprintf("model: %v", err), err)
		}
		return memo.ModelID(m), nil
	}
	return "", classify(http.StatusBadRequest, "bad_request", "model: one of name or cat is required", nil)
}

// Run computes one verdict through the fleet, routed along its key's
// rendezvous ranking with breaker-aware failover.
func (g *Gateway) Run(ctx context.Context, req wire.RunRequest) (*wire.RunResponse, error) {
	scope, merr := g.scope(req.Model, req.Budget)
	key, cerr := g.verdictKey(req.Litmus, scope, merr)
	if cerr != nil {
		return nil, cerr
	}
	return g.route(ctx, key, req)
}

// route tries the key's backends in rendezvous order: the home backend
// first, failing over on transient errors (which also feed the breaker).
// Backends whose breaker refuses are skipped — unless every breaker
// refuses, in which case the home backend is tried anyway (failing open
// beats failing instantly when the whole fleet looks down). Permanent
// errors return immediately: they are the request's fault and will
// reproduce on any backend.
func (g *Gateway) route(ctx context.Context, key string, req wire.RunRequest) (*wire.RunResponse, error) {
	ranked := rendezvous(key, g.names)
	var last error
	tried := 0
	for _, name := range ranked {
		b := g.backends[name]
		if !b.breaker.Allow() {
			continue
		}
		if tried > 0 {
			g.reg.Counter("gw_reroutes_total").Inc()
		}
		tried++
		g.reg.Counter(`gw_backend_requests_total{backend="` + name + `"}`).Inc()
		resp, err := b.client.Run(ctx, req)
		if err == nil {
			b.breaker.Success()
			return resp, nil
		}
		if !Retryable(err) {
			return nil, err
		}
		b.breaker.Failure()
		g.reg.Counter(`gw_backend_failures_total{backend="` + name + `"}`).Inc()
		last = err
		if ctx.Err() != nil {
			break
		}
	}
	if tried == 0 && ctx.Err() == nil {
		// Every breaker refused: fail open through the home backend.
		name := ranked[0]
		g.reg.Counter(`gw_backend_requests_total{backend="` + name + `"}`).Inc()
		resp, err := g.backends[name].client.Run(ctx, req)
		if err == nil {
			g.backends[name].breaker.Success()
			return resp, nil
		}
		if !Retryable(err) {
			return nil, err
		}
		g.reg.Counter(`gw_backend_failures_total{backend="` + name + `"}`).Inc()
		last = err
	}
	if last == nil {
		last = classify(http.StatusServiceUnavailable, "unavailable", "no backend available", nil)
	}
	return nil, last
}

func (g *Gateway) handleRun(w http.ResponseWriter, r *http.Request) {
	var req wire.RunRequest
	if err := wire.DecodeBody(http.MaxBytesReader(w, r.Body, g.cfg.maxRequestBytes()), &req); err != nil {
		writeDecodeError(w, err)
		return
	}
	resp, err := g.Run(hopContext(r), req)
	if err != nil {
		writeGatewayError(w, err)
		return
	}
	wire.WriteJSON(w, http.StatusOK, resp)
}

func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req wire.BatchRequest
	// The body is held until the fan-out is over: each sub-batch copies
	// its tests' literals from it rather than escaping them again.
	body, err := wire.ReadBatchRequest(http.MaxBytesReader(w, r.Body, g.cfg.maxRequestBytes()), &req)
	defer body.Release()
	if err != nil {
		writeDecodeError(w, err)
		return
	}
	if len(req.Tests) == 0 {
		writeGatewayError(w, classify(http.StatusBadRequest, "bad_request", "tests: at least one litmus source is required", nil))
		return
	}
	ctx := hopContext(r)
	if wire.WantsStream(r) {
		g.streamBatch(ctx, w, req, body)
		return
	}
	wire.WriteJSON(w, http.StatusOK, g.collectBatch(ctx, req, body))
}

// writeDecodeError answers a body that did not decode exactly as herdd
// answers it: 413 too_large when the body limit tripped, 400 bad_request
// otherwise.
func writeDecodeError(w http.ResponseWriter, err error) {
	wire.WriteError(w, wire.DecodeStatus(err), "%v", err)
}

// hopContext threads the per-hop request metadata into the context the
// backend clients stamp back onto their upstream requests — today the
// caller's tenant identity, so the backends' quotas see the edge tenant,
// not the gateway.
func hopContext(r *http.Request) context.Context {
	return wire.WithTenant(r.Context(), r.Header.Get(wire.TenantHeader))
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = g.reg.WriteText(w)
}

// BackendStatus is one row of GET /gw/backends.
type BackendStatus struct {
	Name    string `json:"name"`
	Breaker string `json:"breaker"`
}

func (g *Gateway) handleBackends(w http.ResponseWriter, r *http.Request) {
	out := make([]BackendStatus, 0, len(g.names))
	for _, name := range g.names {
		out = append(out, BackendStatus{
			Name:    name,
			Breaker: g.backends[name].breaker.State().String(),
		})
	}
	wire.WriteJSON(w, http.StatusOK, out)
}

// writeGatewayError renders an error in herdd's exact envelope —
// {"error":{code,message}} — preserving an upstream status/code when the
// error carries one and mapping transport failures to 502 bad_gateway. A
// shed backend's Retry-After travels through verbatim: the backend knows
// its own drain rate, and the gateway inventing a different hint would
// desynchronise the caller's backoff from the fleet's actual headroom.
func writeGatewayError(w http.ResponseWriter, err error) {
	status, code, msg := http.StatusBadGateway, "bad_gateway", err.Error()
	var e *Error
	if errors.As(err, &e) && e.Status != 0 {
		status, msg = e.Status, e.Msg
		if e.Code != "" {
			code = e.Code
		} else {
			code = "bad_gateway"
		}
		if e.RetryAfter != "" {
			w.Header().Set(wire.RetryAfterHeader, e.RetryAfter)
		}
	}
	wire.WriteEnvelope(w, status, wire.ErrorBody{Code: code, Message: msg})
}
