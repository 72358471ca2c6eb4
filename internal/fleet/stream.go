package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"herdcats/internal/wire"
)

// BatchStream simulates many tests via POST /v1/batch in the NDJSON
// streaming wire format, delivering each decoded frame to onFrame as it
// arrives (heartbeats included — callers that only want verdicts switch
// on the frame type). onFrame returning an error aborts the stream and
// closes the connection, which is how a consumer cancels mid-batch.
//
// The resilience policy is deliberately narrower than Run/Batch: retries
// apply only while no frame has been delivered, because a consumer that
// has already observed verdicts cannot have them re-delivered without
// duplicates. Once the first frame is through, a failure surfaces as an
// error alongside the frames already delivered; the caller decides what
// to re-request.
func (c *Client) BatchStream(ctx context.Context, req wire.BatchRequest, onFrame func(frame any) error) error {
	return c.batchStream(ctx, wire.AppendBatchRequest(nil, &req), false, onFrame)
}

// batchStream is BatchStream over an encoded request body; with relay, a
// result/v1 line the encoder wrote as is reaches onFrame undecoded, as a
// *wire.RelayResult (Decoder.NextRelay).
func (c *Client) batchStream(ctx context.Context, body []byte, relay bool, onFrame func(frame any) error) error {
	var last error
	for attempt := 0; attempt < c.pol.maxAttempts(); attempt++ {
		if attempt > 0 {
			c.stats.Retries.Add(1)
			timer := time.NewTimer(c.pol.backoff(attempt - 1))
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return classify(0, "", ctx.Err().Error(), ctx.Err())
			}
		}
		delivered, err := c.streamAttempt(ctx, body, relay, onFrame)
		if err == nil {
			return nil
		}
		last = err
		if delivered > 0 || !Retryable(err) || ctx.Err() != nil {
			break
		}
	}
	c.stats.Failures.Add(1)
	return last
}

// errStreamConsumer wraps an onFrame error so BatchStream can tell a
// consumer abort from a transport failure.
type errStreamConsumer struct{ err error }

func (e *errStreamConsumer) Error() string { return e.err.Error() }
func (e *errStreamConsumer) Unwrap() error { return e.err }

// streamAttempt performs one streaming exchange, returning how many
// frames reached the consumer.
func (c *Client) streamAttempt(ctx context.Context, body []byte, relay bool, onFrame func(any) error) (delivered int, err error) {
	c.stats.Attempts.Add(1)
	// No per-attempt timeout: a stream lives as long as the campaign it
	// carries, and its liveness signal is the heartbeat frame, not a wall
	// clock. The caller's context still bounds it.
	req, rerr := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/batch", bytes.NewReader(body))
	if rerr != nil {
		return 0, classify(0, "", rerr.Error(), rerr)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", wire.ContentTypeNDJSON)
	stampHeaders(ctx, req)
	resp, derr := c.hc.Do(req)
	if derr != nil {
		return 0, classify(0, "", derr.Error(), derr)
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return 0, classifyResponse(resp)
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.ContentTypeNDJSON {
		// The backend ignored Accept (an old node): surface it as a
		// permanent protocol mismatch rather than mis-decoding a buffered
		// document as frames.
		return 0, classify(http.StatusOK, "not_streaming",
			fmt.Sprintf("backend answered %q, not %s", ct, wire.ContentTypeNDJSON), nil)
	}
	dec := wire.NewDecoder(resp.Body)
	defer dec.Release()
	next := dec.Next
	if relay {
		next = dec.NextRelay
	}
	for {
		frame, ferr := next()
		if ferr != nil {
			if errors.Is(ferr, io.EOF) {
				return delivered, nil
			}
			// A truncated or garbled stream is a transport-class failure:
			// the backend may answer intact on retry (when nothing was
			// delivered yet).
			return delivered, classify(0, "", fmt.Sprintf("decoding stream: %v", ferr), ferr)
		}
		if err := onFrame(frame); err != nil {
			return delivered, &errStreamConsumer{err: err}
		}
		delivered++
	}
}
