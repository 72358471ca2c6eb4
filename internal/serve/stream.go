package serve

import (
	"context"
	"net/http"
	"strings"
	"time"

	"herdcats/internal/campaign"
	"herdcats/internal/obs"
	"herdcats/internal/wire"
)

// batchStream is the NDJSON edge of POST /v1/batch: one result/v1 or
// error/v1 frame per test as the campaign pool settles it (request order
// when the request is ordered, completion order otherwise), heartbeat
// frames while every in-flight job is still grinding, and a terminal
// summary/v1 with the batch totals — so a million-test campaign is
// delivered incrementally instead of buffered whole on both sides.
//
// Cancellation: the request context dies when the client disconnects, and
// a frame-write failure (the disconnect signal once streaming has begun)
// cancels the campaign explicitly — either way the in-flight simulations
// wind down and their admission slots are released promptly.
type batchStream struct {
	p             *batchPlan
	enc           *wire.Encoder
	merge         *wire.Merge
	cancel        context.CancelFunc
	stopHeartbeat func()
	emitted       []bool
	start         time.Time
}

// openBatchStream writes the NDJSON response header and starts the
// heartbeat. The returned context is the campaign's: the stream cancels
// it when the client goes away.
func openBatchStream(ctx context.Context, w http.ResponseWriter, p *batchPlan, ordered bool, heartbeat time.Duration) (context.Context, *batchStream) {
	ctx, cancel := context.WithCancel(ctx)
	w.Header().Set("Content-Type", wire.ContentTypeNDJSON)
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(http.StatusOK)
	enc := wire.NewEncoder(w)
	st := &batchStream{
		p:       p,
		enc:     enc,
		merge:   wire.NewMerge(enc, ordered),
		cancel:  cancel,
		emitted: make([]bool, len(p.jobs)),
		start:   time.Now(),
	}
	st.stopHeartbeat = wire.Heartbeat(ctx, enc, heartbeat, st.start)
	return ctx, st
}

// close stops the heartbeat and cancels the campaign context; calling it
// again is harmless.
func (st *batchStream) close() {
	st.stopHeartbeat()
	st.cancel()
}

// emit writes index i's single frame; it is the campaign's OnResult hook.
// Indices are distinct per call, so the emitted bookkeeping is race-free;
// the merge serialises the actual writes.
func (st *batchStream) emit(i int, res campaign.JobResult) {
	st.emitted[i] = true
	var err error
	if res.Failed() || res.Status == campaign.StatusSkipped {
		err = st.merge.Emit(i, wire.NewError(i, res.Name, streamErrorCode(st.p, i, res), res.Reason))
	} else {
		err = st.merge.Emit(i, wire.NewResult(i, st.p.keys[i], st.p.cached[i], res))
	}
	if err != nil {
		// The client is gone (or the pipe broke): stop the campaign
		// now so simulations stop burning slots for nobody.
		st.cancel()
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
	st.stopHeartbeat()

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
		tj := tr.Summary()
		if tj == nil {
			continue
		}
		if sum.PhaseTotalsUS == nil {
			sum.PhaseTotalsUS = map[string]int64{}
		}
		for _, ph := range tj.Phases {
			sum.PhaseTotalsUS[ph.Phase] += ph.DurationUS
		}
		if sum.Enum == nil {
			sum.Enum = &obs.EnumSnapshot{}
		}
		sum.Enum.Add(tj.Enum)
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
