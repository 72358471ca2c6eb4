package serve

import (
	"context"
	"net/http"
	"strings"
	"time"

	"herdcats/internal/campaign"
	"herdcats/internal/wire"
)

// batchStream is the NDJSON edge of POST /v1/batch: one result/v1 or
// error/v1 frame per test as the campaign pool settles it (request order
// when the request is ordered, completion order otherwise), heartbeat
// frames while every in-flight job is still grinding, and a terminal
// summary/v1 with the batch totals — so a million-test campaign is
// delivered incrementally instead of buffered whole on both sides.
//
// Frames go through a wire.NewStream encoder: emit queues each frame and
// returns, and the stream's writer goroutine writes whatever has queued
// with one write, so the campaign workers never wait on the socket
// unless the client falls a bounded amount behind.
//
// Cancellation: the request context dies when the client disconnects,
// and the stream cancels the campaign's context on its first failed
// write (the disconnect signal once streaming has begun) — either way
// the in-flight simulations wind down and their admission slots are
// released promptly.
type batchStream struct {
	p       *batchPlan
	enc     *wire.Encoder
	merge   *wire.Merge
	emitted []bool
	start   time.Time
}

// openBatchStream writes the NDJSON response header and starts the
// stream's writer. The returned context is the campaign's: the stream
// cancels it when the client goes away.
func openBatchStream(ctx context.Context, w http.ResponseWriter, p *batchPlan, ordered bool, heartbeat time.Duration) (context.Context, *batchStream) {
	w.Header().Set("Content-Type", wire.ContentTypeNDJSON)
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(http.StatusOK)
	st := &batchStream{p: p, emitted: make([]bool, len(p.jobs)), start: time.Now()}
	ctx, st.enc = wire.NewStream(ctx, w, heartbeat)
	st.merge = wire.NewMerge(st.enc, ordered)
	return ctx, st
}

// close drains the stream, stops its writer and cancels the campaign
// context; calling it again is harmless.
func (st *batchStream) close() {
	_ = st.enc.Close()
}

// emit queues index i's single frame; it is the campaign's OnResult
// hook. Indices are distinct per call, so the emitted bookkeeping is
// race-free; the merge serialises the frames. A hit appends the body
// kept with its verdict (keepBody), which is the row's own rendering. An
// error means the stream has failed, and the stream has already
// cancelled the campaign.
func (st *batchStream) emit(i int, res campaign.JobResult) {
	st.emitted[i] = true
	switch body := st.p.bodies[i]; {
	case res.Failed() || res.Status == campaign.StatusSkipped:
		_ = st.merge.Emit(i, wire.NewError(i, res.Name, streamErrorCode(st.p, i, res), res.Reason))
	case body != nil:
		_ = st.merge.Emit(i, &wire.StoredResult{Index: i, Key: st.p.keys[i], Cached: st.p.cached[i],
			Body: body, Attempts: res.Attempts, ElapsedMS: res.ElapsedMS})
	default:
		_ = st.merge.Emit(i, wire.NewResult(i, st.p.keys[i], st.p.cached[i], res))
	}
}

// finish writes the frames of the rows the pool never started (the
// stream was cancelled first; campaign.Run has already classified them
// Skipped), then the terminal summary.
func (st *batchStream) finish(rep *campaign.Report, opts EffectiveOptions) {
	for i := range rep.Jobs {
		if !st.emitted[i] {
			st.emit(i, rep.Jobs[i])
		}
	}

	sum := wire.NewSummary(len(rep.Jobs))
	for status, c := range rep.Counts {
		sum.Counts[status] = c
	}
	for _, hit := range st.p.cached {
		if hit {
			sum.CacheHits++
		}
	}
	sum.ElapsedMS = time.Since(st.start).Milliseconds()
	sum.Options = &opts
	for _, tr := range st.p.traces {
		if tj := tr.Summary(); tj != nil {
			sum.Fold(tj.Phases, &tj.Enum)
		}
	}
	_ = st.enc.Encode(sum)
}

// streamErrorCode names the envelope code of one failed row, mirroring
// the status the buffered wire format would have used for the same
// failure.
func streamErrorCode(p *batchPlan, i int, res campaign.JobResult) string {
	switch {
	case p.errs[i] != nil: // the row never parsed
		return wire.ErrorCode(http.StatusBadRequest)
	case res.Status == campaign.StatusPanicked:
		return wire.ErrorCode(http.StatusInternalServerError)
	case res.Status == campaign.StatusSkipped:
		return wire.ErrorCode(http.StatusServiceUnavailable)
	case strings.HasPrefix(res.Reason, "overloaded"):
		return wire.ErrorCode(http.StatusTooManyRequests)
	}
	return wire.ErrorCode(http.StatusUnprocessableEntity)
}

// heartbeatInterval spaces the idle heartbeat frames (<= 0 selects 10s).
func (c Config) heartbeatInterval() time.Duration {
	if c.HeartbeatInterval > 0 {
		return c.HeartbeatInterval
	}
	return 10 * time.Second
}
