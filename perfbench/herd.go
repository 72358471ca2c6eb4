package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"herdcats/internal/campaign"
	"herdcats/internal/fleet"
	"herdcats/internal/serve"
	"herdcats/internal/wire"
)

// spanHeader carries the benchmark's client span ID to its server-side
// handler wrapper, so a traced request's server span names its parent.
// herdd ignores headers it does not know.
const spanHeader = "X-Bench-Span"

// herddConfig mirrors cmd/herdd's flag defaults; enumWorkers is the only
// knob a workload changes (cmd/herdd's default is 1, sequential).
func herddConfig(enumWorkers int) serve.Config {
	return serve.Config{
		CacheEntries:  4096,
		MaxSimTimeout: 30 * time.Second,
		EnumWorkers:   enumWorkers,
	}
}

// node is one in-process HTTP server (herdd or herd-gw) on a loopback
// listener. A nil recorder serves the handler unwrapped, exactly as the
// daemons do; a non-nil one wraps it to record a span per request while
// the recorder is on.
type node struct {
	url  string
	hs   *http.Server
	done chan error
}

func listen(h http.Handler, rec *spanRec, spanName string) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	if rec != nil {
		h = rec.wrap(h, spanName)
	}
	n := &node{url: "http://" + ln.Addr().String(), done: make(chan error, 1),
		hs: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}}
	go func() { n.done <- n.hs.Serve(ln) }()
	return n, nil
}

func (n *node) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = n.hs.Shutdown(ctx) // Serve's result below is what matters
	if err := <-n.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Printf("# server exit: %v\n", err)
	}
}

// herdd is an in-process herdd: serve.New behind a loopback listener.
type herdd struct {
	srv *serve.Server
	*node
}

func startHerdd(cfg serve.Config, rec *spanRec) (*herdd, error) {
	s := serve.New(cfg)
	n, err := listen(s.Handler(), rec, "serve.handler")
	if err != nil {
		return nil, err
	}
	return &herdd{srv: s, node: n}, nil
}

// gateway is an in-process herd-gw in front of one herdd.
type gateway struct {
	gw *fleet.Gateway
	*node
}

func startGateway(backend string, rec *spanRec) (*gateway, error) {
	g, err := fleet.NewGateway(fleet.GatewayConfig{Backends: []string{backend}})
	if err != nil {
		return nil, fmt.Errorf("gateway: %w", err)
	}
	n, err := listen(g.Handler(), rec, "fleet.gateway")
	if err != nil {
		g.Close()
		return nil, err
	}
	return &gateway{gw: g, node: n}, nil
}

func (g *gateway) close() {
	g.node.close()
	g.gw.Close()
}

// newHTTPClient is the load generator's connection pool: at most nproc
// connections per host, kept alive across requests.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: runtime.NumCPU(),
		MaxConnsPerHost:     runtime.NumCPU(),
	}}
}

// runBodies pre-renders the /v1/run request bodies, so the timed loop
// measures the system rather than the load generator's JSON encoder.
func runBodies(srcs []string) ([][]byte, error) {
	bodies := make([][]byte, len(srcs))
	for i, src := range srcs {
		b, err := json.Marshal(wire.RunRequest{Litmus: src, Model: wire.ModelSpec{Name: modelName}})
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	return bodies, nil
}

// runReply is one /v1/run exchange as the client saw it, reduced to what
// the oracle compares, so the load generator retains little heap.
type runReply struct {
	status       int
	latency      time.Duration
	done         time.Time
	verdict      string
	cands, valid int
	err          error
}

// runBrief is the part of a wire.RunResponse the benchmark reads.
type runBrief struct {
	Verdict string `json:"verdict"`
	Outcome struct {
		Candidates int `json:"candidates"`
		Valid      int `json:"valid"`
	} `json:"outcome"`
}

// postRun sends one /v1/run request. parent, when non-zero, is sent as the
// client span ID for the server-side span wrapper.
func postRun(hc *http.Client, url string, body []byte, parent int64) runReply {
	req, err := http.NewRequest(http.MethodPost, url+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return runReply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if parent != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(parent, 10))
	}
	t0 := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return runReply{err: err}
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := runReply{status: resp.StatusCode, done: time.Now()}
	r.latency = r.done.Sub(t0)
	if err != nil {
		r.err = err
		return r
	}
	if r.status == http.StatusOK {
		var b runBrief
		r.err = json.Unmarshal(raw, &b)
		r.verdict, r.cands, r.valid = b.Verdict, b.Outcome.Candidates, b.Outcome.Valid
	} else {
		r.err = fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(raw))
	}
	return r
}

// row is one streamed batch row, reduced to what the oracle compares.
type row struct {
	index        int
	status       campaign.Status
	cands, valid int
}

// batchReply is one streamed /v1/batch exchange as the client saw it.
type batchReply struct {
	latency time.Duration
	done    time.Time
	rows    []row
	frames  []*wire.ResultFrame // every result frame, kept only on request
	errs    []*wire.ErrorFrame
	err     error
}

// streamBatch sends one NDJSON /v1/batch request through a fleet client
// and collects its rows (and, with keep, the decoded result frames).
func streamBatch(ctx context.Context, c *fleet.Client, tests []string, keep bool) batchReply {
	r := batchReply{rows: make([]row, 0, len(tests))}
	t0 := time.Now()
	r.err = c.BatchStream(ctx, wire.BatchRequest{Tests: tests, Model: wire.ModelSpec{Name: modelName}},
		func(f any) error {
			switch f := f.(type) {
			case *wire.ResultFrame:
				r.rows = append(r.rows, row{f.Index, f.Result.Status, f.Result.Candidates, f.Result.Valid})
				if keep {
					r.frames = append(r.frames, f)
				}
			case *wire.ErrorFrame:
				r.errs = append(r.errs, f)
			}
			return nil
		})
	r.done = time.Now()
	r.latency = r.done.Sub(t0)
	return r
}
