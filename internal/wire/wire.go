// Package wire is the fleet's shared wire schema: the JSON request and
// response types of the /v1 API, the error envelope, and the versioned
// NDJSON frame protocol that streams batch verdicts.
//
// Before this package the types lived in internal/serve and were re-used
// (or re-implemented) by internal/fleet, cmd/herd-gw and cmd/herd; now
// there is one definition, one encoder, one decoder, and every layer —
// node, gateway, client — speaks bytes produced by the same code.
//
// # Buffered wire format
//
// POST /v1/run and POST /v1/batch answer with one indented JSON document
// (RunResponse, BatchResponse). Every non-2xx response is the envelope
// {"error":{"code","message"}} (ErrorBody); clients switch on the code.
//
// # Streaming wire format
//
// A /v1/batch request carrying "Accept: application/x-ndjson" is answered
// as newline-delimited JSON: one frame per line, each written as soon as
// it exists (frames that queue behind an in-flight write share the next
// one; see NewStream), so a million-test campaign is delivered verdict by
// verdict instead of being buffered whole on both sides. Each frame is a JSON object whose "type"
// field names a versioned schema:
//
//	result/v1     one test's verdict (index, key, cached, campaign row)
//	error/v1      one test's failure — or, at index -1, the stream's
//	summary/v1    the terminal frame: totals, cache hits, phase aggregates
//	heartbeat/v1  emitted under idle so proxies and clients see liveness
//
// Exactly one frame is emitted per test (result/v1 or error/v1, in
// completion order, or in request order when BatchRequest.Ordered is
// set), any number of heartbeat/v1 frames may appear interleaved, and a
// well-formed stream ends with exactly one summary/v1. A stream that was
// cut mid-frame is detected by the decoder (ErrTruncated) — the frames
// before the cut remain usable, mirroring the torn-line tolerance of the
// mining journal.
package wire

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// ContentTypeNDJSON selects (in Accept) and labels (in Content-Type) the
// streaming batch wire format.
const ContentTypeNDJSON = "application/x-ndjson"

// ContentTypeJSON labels the buffered wire format.
const ContentTypeJSON = "application/json"

// DeadlineHeader carries a request's remaining deadline budget in
// milliseconds. A gateway decrements it hop-by-hop (subtracting its own
// queueing and transfer time), so a deadline set once at the edge bounds
// the whole call tree; a request arriving with no budget left is shed
// before any work happens.
const DeadlineHeader = "X-Deadline"

// TenantHeader names the quota account a request is charged to. Nodes
// meter admission per tenant (token bucket, see serve.Config.TenantRate);
// the gateway forwards the header verbatim so the whole fleet shares one
// quota ledger per tenant.
const TenantHeader = "X-Tenant"

// RetryAfterHeader is the standard backoff hint on a 429 shed. The
// gateway propagates a backend's value verbatim.
const RetryAfterHeader = "Retry-After"

// WantsStream reports whether the request asked for the NDJSON streaming
// wire format (any Accept member naming it; parameters ignored).
func WantsStream(r *http.Request) bool {
	for _, accept := range r.Header.Values("Accept") {
		for _, member := range strings.Split(accept, ",") {
			mt, _, _ := strings.Cut(strings.TrimSpace(member), ";")
			if strings.TrimSpace(mt) == ContentTypeNDJSON {
				return true
			}
		}
	}
	return false
}

// ErrorBody is the payload of the error envelope: a stable machine-
// readable code (derived from the HTTP status) plus a human-readable
// message. Every non-2xx response is `{"error": ErrorBody}`.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorEnvelope is the JSON error envelope itself.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// ErrorCode names an HTTP status for the envelope; clients switch on the
// code, not the message text.
func ErrorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusRequestEntityTooLarge:
		return "too_large"
	case http.StatusUnprocessableEntity:
		return "unprocessable"
	case http.StatusTooManyRequests:
		return "overloaded"
	case http.StatusInternalServerError:
		return "internal"
	case http.StatusBadGateway:
		return "bad_gateway"
	case http.StatusServiceUnavailable:
		return "unavailable"
	case http.StatusGatewayTimeout:
		return "deadline_exceeded"
	}
	return "error"
}

// WriteJSON writes v as one indented JSON document — the buffered wire
// format shared by every /v1 endpoint.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", ContentTypeJSON)
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteError writes the error envelope with the code derived from the
// status.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteEnvelope(w, status, ErrorBody{
		Code:    ErrorCode(status),
		Message: fmt.Sprintf(format, args...),
	})
}

// WriteEnvelope writes an explicit error envelope — the path a gateway
// uses to pass an upstream code through byte-compatibly.
func WriteEnvelope(w http.ResponseWriter, status int, body ErrorBody) {
	WriteJSON(w, status, ErrorEnvelope{Error: body})
}

// tenantKey carries the quota account through a context, so clients deep
// in the fleet stack can stamp TenantHeader without threading a parameter
// through every call.
type tenantKey struct{}

// WithTenant returns ctx carrying the tenant quota account.
func WithTenant(ctx context.Context, tenant string) context.Context {
	if tenant == "" {
		return ctx
	}
	return context.WithValue(ctx, tenantKey{}, tenant)
}

// Tenant returns the quota account carried by ctx, if any.
func Tenant(ctx context.Context) string {
	t, _ := ctx.Value(tenantKey{}).(string)
	return t
}

// DecodeBody decodes one JSON value into v, rejecting anything but JSON
// whitespace after it. It never panics on malformed input (see serve's
// fuzz test).
func DecodeBody(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("body: %w", err)
	}
	rest := io.MultiReader(dec.Buffered(), r)
	var buf [512]byte
	for {
		n, err := rest.Read(buf[:])
		for _, c := range buf[:n] {
			if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
				return fmt.Errorf("body: trailing data after the request object")
			}
		}
		switch {
		case err == io.EOF:
			return nil
		case err != nil:
			return fmt.Errorf("body: %w", err)
		}
	}
}

// DecodeStatus maps a DecodeBody (or DecodeBatchRequest) error to its
// HTTP status: 413 when the body limit tripped, 400 otherwise.
func DecodeStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}
