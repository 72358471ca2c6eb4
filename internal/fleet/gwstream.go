package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"herdcats/internal/campaign"
	"herdcats/internal/obs"
	"herdcats/internal/wire"
)

// stoppedReason is reported for a row the fan-out never settled,
// mirroring the backend's never-started classification.
const stoppedReason = "batch stopped before this test ran"

// fanOut answers a batch across the fleet as whole streaming sub-batches:
// each test's verdict key picks its home backend (rendezvous order,
// skipping backends whose breaker is not closed), and rows sharing a home
// travel as upstream streams of at most wire.MaxBatchTests rows, one
// stream at a time per backend. Rows an
// upstream stream never delivered fall back to per-row routing along
// their failover ranking, so a lost backend costs latency, not verdicts.
//
// sink receives, from concurrent goroutines, at most one
// *wire.ResultFrame or *wire.ErrorFrame per row — indexed in the
// caller's request — plus every upstream *wire.SummaryFrame. With relay,
// an upstream result line the encoder wrote as is arrives as a
// *wire.RelayResult instead, undecoded. A row whose context died before
// it settled gets no frame; the edge reports it. body is the request's
// held body (nil when it was not read in one pass), from which each
// sub-batch copies its tests' exact literals.
func (g *Gateway) fanOut(ctx context.Context, req wire.BatchRequest, body *wire.Body, relay bool, sink func(frame any)) {
	// Parse/model failures settle as error frames at once; everything
	// else joins its home backend's group.
	keys := make([]string, len(req.Tests))
	groups := map[string][]int{}
	scope, merr := g.scope(req.Model, req.Budget)
	for i, src := range req.Tests {
		key, cerr := g.verdictKey(src, scope, merr)
		if cerr != nil {
			sink(rowError(i, errorBodyOf(cerr)))
			continue
		}
		keys[i] = key
		home := g.homeBackend(key)
		groups[home] = append(groups[home], i)
	}

	var wg sync.WaitGroup
	for name, rows := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The backend's campaign pool already runs a chunk's rows
			// in parallel; concurrent chunks would only queue there.
			for len(rows) > 0 && ctx.Err() == nil {
				chunk := rows[:min(len(rows), wire.MaxBatchTests)]
				rows = rows[len(chunk):]
				g.streamChunk(ctx, name, chunk, keys, req, body, relay, sink)
			}
		}()
	}
	wg.Wait()
}

// streamChunk runs one chunk of a home backend's rows as a single
// upstream stream, remapping its chunk-local frame indices onto the
// caller's, then sweeps up anything the stream did not deliver via
// per-row route — which walks each key's own failover ranking, so the
// rows of a dead home backend land elsewhere.
func (g *Gateway) streamChunk(ctx context.Context, backend string, rows []int, keys []string, req wire.BatchRequest, body *wire.Body, relay bool, sink func(any)) {
	b := g.backends[backend]
	sub := body.AppendSubBatch(nil, &req, rows) // the chunk's request body
	done := make([]bool, len(rows))
	claim := func(gi int) error {
		if gi < 0 || gi >= len(rows) || done[gi] {
			return fmt.Errorf("gateway: backend %s: bogus frame index %d", backend, gi)
		}
		done[gi] = true
		return nil
	}
	g.reg.Counter(`gw_backend_requests_total{backend="` + backend + `"}`).Inc()
	err := b.client.batchStream(ctx, sub, relay, func(frame any) error {
		switch f := frame.(type) {
		case *wire.RelayResult:
			if err := claim(f.Index); err != nil {
				return err
			}
			f.Index = rows[f.Index]
			sink(f)
		case *wire.ResultFrame:
			if err := claim(f.Index); err != nil {
				return err
			}
			// The decoded frame is this stream's own: renumber it in place.
			f.Index = rows[f.Index]
			sink(f)
		case *wire.ErrorFrame:
			if f.Index < 0 {
				// The whole upstream batch died mid-flight; abort the
				// stream and let the fallback sweep cover what is left.
				return fmt.Errorf("gateway: backend %s: stream error: %s", backend, f.Error.Message)
			}
			if err := claim(f.Index); err != nil {
				return err
			}
			sink(rowError(rows[f.Index], f.Error))
		case *wire.SummaryFrame:
			sink(f)
		case *wire.HeartbeatFrame:
			// Absorbed: the gateway heartbeats the merged stream itself,
			// and forwarding per-backend pulses would just be noise.
		}
		return nil
	})
	switch {
	case err == nil:
		b.breaker.Success()
	case Retryable(err):
		b.breaker.Failure()
		g.reg.Counter(`gw_backend_failures_total{backend="` + backend + `"}`).Inc()
	}

	for gi, i := range rows {
		if done[gi] {
			continue
		}
		if ctx.Err() != nil {
			return // the edge owes these their skipped row
		}
		if err != nil {
			g.reg.Counter("gw_reroutes_total").Inc()
		}
		resp, rerr := g.route(ctx, keys[i], rowRunRequest(req, i))
		if rerr != nil {
			sink(rowError(i, errorBodyOf(rerr)))
			continue
		}
		sink(wire.NewResult(i, resp.Key, resp.Cached, jobResultFromRun(resp)))
	}
}

// streamBatch is the NDJSON edge of the fan-out. It merges the frames
// onto one downstream stream (in request order when the request is
// ordered) and folds the upstream summaries into the single terminal
// summary. The stream's writer goroutine writes each burst of relayed
// frames with one write and heartbeats the merged stream's own
// idleness; its first failed write (the client is gone) cancels the
// fan-out.
func (g *Gateway) streamBatch(ctx context.Context, w http.ResponseWriter, req wire.BatchRequest, body *wire.Body) {
	start := time.Now()
	n := len(req.Tests)

	w.Header().Set("Content-Type", wire.ContentTypeNDJSON)
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(http.StatusOK)
	ctx, enc := wire.NewStream(ctx, w, g.cfg.heartbeatInterval())
	defer enc.Close()
	merge := wire.NewMerge(enc, req.Ordered)

	emit := func(i int, frame any) {
		_ = merge.Emit(i, frame) // a failed stream has cancelled ctx
	}
	// Each row's status and cached flag are written once, by the
	// goroutine settling it; only the summary fold is shared.
	status := make([]campaign.Status, n)
	cached := make([]bool, n)
	sum := wire.NewSummary(n)
	var mu sync.Mutex
	g.fanOut(ctx, req, body, true, func(frame any) {
		switch f := frame.(type) {
		case *wire.RelayResult:
			status[f.Index], cached[f.Index] = f.Status, f.Cached
			emit(f.Index, f)
		case *wire.ResultFrame:
			status[f.Index], cached[f.Index] = f.Result.Status, f.Cached
			emit(f.Index, f)
		case *wire.ErrorFrame:
			status[f.Index] = campaign.StatusError
			emit(f.Index, f)
		case *wire.SummaryFrame:
			mu.Lock()
			defer mu.Unlock()
			spans := make([]obs.PhaseSpan, 0, len(f.PhaseTotalsUS))
			for ph, us := range f.PhaseTotalsUS {
				spans = append(spans, obs.PhaseSpan{Phase: ph, DurationUS: us})
			}
			sum.Fold(spans, f.Enum)
		}
	})

	for i := range status {
		if status[i] == "" {
			status[i] = campaign.StatusSkipped
			emit(i, wire.NewError(i, rowName(i), wire.ErrorCode(http.StatusServiceUnavailable), stoppedReason))
		}
		sum.Counts[status[i]]++
		if cached[i] {
			sum.CacheHits++
		}
	}
	sum.ElapsedMS = time.Since(start).Milliseconds()
	_ = enc.Encode(sum)
}

// collectBatch is the buffered edge of the fan-out: it files each row's
// frame into a request-ordered BatchResponse. A result frame keeps its
// campaign row, key and cached flag; an error frame becomes an Error row
// carrying the frame's message; a row never settled is Skipped.
func (g *Gateway) collectBatch(ctx context.Context, req wire.BatchRequest, body *wire.Body) *wire.BatchResponse {
	n := len(req.Tests)
	jobs := make([]campaign.JobResult, n)
	resp := &wire.BatchResponse{Cached: make([]bool, n), Keys: make([]string, n)}
	g.fanOut(ctx, req, body, false, func(frame any) {
		switch f := frame.(type) {
		case *wire.ResultFrame:
			jobs[f.Index], resp.Keys[f.Index], resp.Cached[f.Index] = f.Result, f.Key, f.Cached
		case *wire.ErrorFrame:
			jobs[f.Index] = campaign.JobResult{Name: f.Name, Status: campaign.StatusError, Reason: f.Error.Message, Attempts: 1}
		}
	})
	resp.Report = &campaign.Report{Counts: map[campaign.Status]int{}}
	for i, job := range jobs {
		if job.Status == "" {
			job = campaign.JobResult{Name: rowName(i), Status: campaign.StatusSkipped, Reason: stoppedReason}
		}
		resp.Report.Add(job)
	}
	return resp
}

// homeBackend picks the first backend along key's rendezvous ranking
// whose breaker is closed — the same placement route walks, but read via
// State() so grouping never consumes a half-open trial. When no breaker
// is closed the top-ranked backend is chosen anyway: failing open beats
// failing instantly when the whole fleet looks down. It ranks without
// sorting or allocating: one pass keeps the heaviest closed backend and
// the heaviest overall, weighing each as rendezvous does. g.names is
// sorted, so keeping the first of equal weights breaks ties as
// rendezvous does.
func (g *Gateway) homeBackend(key string) string {
	prefix := fnvString(fnvString(fnvOffset, key), "\x00") // rendezvous's separator
	var home, top *gwBackend
	var homeW, topW uint64
	for _, b := range g.ordered {
		w := mix64(fnvString(prefix, b.name))
		if top == nil || w > topW {
			top, topW = b, w
		}
		if (home == nil || w > homeW) && b.breaker.State() == BreakerClosed {
			home, homeW = b, w
		}
	}
	if home == nil {
		return top.name
	}
	return home.name
}

// rowRunRequest projects one batch row onto the single-run wire shape
// (the unit the per-row fallback works in).
func rowRunRequest(req wire.BatchRequest, i int) wire.RunRequest {
	return wire.RunRequest{
		Litmus:     req.Tests[i],
		Model:      req.Model,
		Budget:     req.Budget,
		DeadlineMS: req.DeadlineMS,
	}
}

// rowName names row i the way the backends name a row they could not
// parse.
func rowName(i int) string { return fmt.Sprintf("tests[%d]", i) }

// rowError builds row i's error frame.
func rowError(i int, body wire.ErrorBody) *wire.ErrorFrame {
	return wire.NewError(i, rowName(i), body.Code, body.Message)
}

// errorBodyOf projects a fleet error onto the wire envelope body,
// defaulting to bad_gateway for transport-class failures.
func errorBodyOf(err error) wire.ErrorBody {
	body := wire.ErrorBody{Code: "bad_gateway", Message: err.Error()}
	var e *Error
	if errors.As(err, &e) {
		body.Message = e.Msg
		switch {
		case e.Code != "":
			body.Code = e.Code
		case e.Status != 0:
			body.Code = wire.ErrorCode(e.Status)
		}
	}
	return body
}

// jobResultFromRun folds one routed run into a campaign row, the shape
// a backend's result frame carries.
func jobResultFromRun(resp *wire.RunResponse) campaign.JobResult {
	res := campaign.JobResult{
		Name:       resp.Outcome.Test,
		Model:      resp.Outcome.Model,
		Candidates: resp.Outcome.Candidates,
		Valid:      resp.Outcome.Valid,
		Attempts:   1,
		ElapsedMS:  resp.ElapsedMS,
	}
	if len(resp.Outcome.States) > 0 {
		res.States = make(map[string]int, len(resp.Outcome.States))
		for _, s := range resp.Outcome.States {
			res.States[s.State] = s.Count
		}
	}
	switch resp.Verdict {
	case "Allowed":
		res.Status = campaign.StatusOK
	case "Forbidden":
		res.Status = campaign.StatusForbidden
	default:
		res.Status = campaign.StatusIncomplete
		res.Reason = resp.Outcome.Reason
	}
	return res
}
