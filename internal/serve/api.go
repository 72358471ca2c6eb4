package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"herdcats/internal/campaign"
	"herdcats/internal/cat"
	"herdcats/internal/exec"
	"herdcats/internal/litmus"
	"herdcats/internal/memo"
	"herdcats/internal/obs"
	"herdcats/internal/sim"
	"herdcats/internal/wire"
)

// The request/response schemas live in internal/wire — one definition
// shared by this server, the fleet client, the gateway and cmd/herd. The
// aliases keep serve's historical names working for embedders and tests.
type (
	// ModelSpec selects the model of a request (see wire.ModelSpec).
	ModelSpec = wire.ModelSpec
	// BudgetSpec maps onto exec.Budget (see wire.BudgetSpec).
	BudgetSpec = wire.BudgetSpec
	// RunRequest is the body of POST /v1/run.
	RunRequest = wire.RunRequest
	// RunResponse is the body of a successful POST /v1/run.
	RunResponse = wire.RunResponse
	// BatchRequest is the body of POST /v1/batch.
	BatchRequest = wire.BatchRequest
	// BatchResponse is the body of a successful buffered POST /v1/batch.
	BatchResponse = wire.BatchResponse
	// EffectiveOptions echoes the options a request actually ran under.
	EffectiveOptions = wire.EffectiveOptions
	// ModelInfo describes one built-in model in GET /v1/models.
	ModelInfo = wire.ModelInfo
	// ErrorBody is the payload of the error envelope.
	ErrorBody = wire.ErrorBody

	// apiError is the JSON error envelope (documented in README.md).
	apiError = wire.ErrorEnvelope
)

// DeadlineHeader carries a request's remaining deadline budget in
// milliseconds (see wire.DeadlineHeader).
const DeadlineHeader = wire.DeadlineHeader

// errDeadlineExpired: the request arrived with its deadline budget
// already spent.
var errDeadlineExpired = errors.New("deadline: no budget remaining")

// deadlineBudget resolves a request's deadline budget from the
// X-Deadline header and the body's deadline_ms field (tighter wins;
// 0 = unbounded).
func deadlineBudget(r *http.Request, bodyMS int64) (time.Duration, error) {
	ms := bodyMS
	if h := r.Header.Get(DeadlineHeader); h != "" {
		v, err := strconv.ParseInt(h, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %q is not a millisecond count", DeadlineHeader, h)
		}
		if v <= 0 {
			return 0, errDeadlineExpired
		}
		if ms == 0 || v < ms {
			ms = v
		}
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// resolveModel turns a ModelSpec into a checker: built-ins come from the
// embedded catalogue, inline sources from the content-addressed model
// cache.
func (s *Server) resolveModel(spec ModelSpec) (sim.Checker, int, error) {
	if spec.Name != "" {
		m, err := cat.Builtin(spec.Name)
		if err != nil {
			return nil, http.StatusNotFound, err
		}
		return m, 0, nil
	}
	m, err := s.cache.Model(spec.Cat)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	return m, 0, nil
}

// budget maps a BudgetSpec onto exec.Budget, clamping the wall clock to
// the server's cap. The clamped budget is what enters the cache key, so
// "no timeout" and "a timeout beyond the cap" address the same verdict.
func (s *Server) budget(spec BudgetSpec) exec.Budget {
	b := spec.Budget()
	if lim := s.cfg.MaxSimTimeout; lim > 0 && (b.Timeout == 0 || b.Timeout > lim) {
		b.Timeout = lim
	}
	return b
}

// effectiveOptions reports the options a simulation runs under: the
// server's enumeration knobs plus the post-clamp budget.
func (s *Server) effectiveOptions(b exec.Budget) EffectiveOptions {
	return EffectiveOptions{
		Workers: s.cfg.EnumWorkers,
		Budget: BudgetSpec{
			MaxCandidates:      b.MaxCandidates,
			MaxTracesPerThread: b.MaxTracesPerThread,
			TimeoutMS:          b.Timeout.Milliseconds(),
		},
	}
}

// verdict folds an outcome into the API's three-valued verdict: an
// incomplete search that never observed the condition cannot distinguish
// Forbidden from not-yet-found.
func verdict(out *sim.Outcome) string {
	switch {
	case out.Allowed():
		return "Allowed"
	case out.Incomplete:
		return "Unknown"
	default:
		return "Forbidden"
	}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if err := wire.DecodeBody(http.MaxBytesReader(w, r.Body, s.cfg.maxRequestBytes()), &req); err != nil {
		wire.WriteError(w, wire.DecodeStatus(err), "%v", err)
		return
	}
	if err := req.Validate(); err != nil {
		wire.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	deadline, derr := deadlineBudget(r, req.DeadlineMS)
	if derr != nil {
		if errors.Is(derr, errDeadlineExpired) {
			writeOverloaded(w, s.adm.expired())
			return
		}
		wire.WriteError(w, http.StatusBadRequest, "%v", derr)
		return
	}
	tenant := r.Header.Get(wire.TenantHeader)
	b := s.budget(req.Budget)
	checker, status, merr := s.resolveModel(req.Model)
	tr := obs.NewTrace()
	stopParse := tr.Phase(obs.PhaseParse)
	var rw *row
	var err error
	if merr == nil {
		rw, err = s.resolveRow(req.Litmus, memo.NewScope(memo.ModelID(checker), b))
	} else if _, perr := litmus.Parse(req.Litmus); perr != nil {
		// A bad litmus test is reported before a bad model.
		err = fmt.Errorf("litmus: %w", perr)
	}
	stopParse()
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if merr != nil {
		wire.WriteError(w, status, "model: %v", merr)
		return
	}

	start := time.Now()
	ctx := r.Context()
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	v, cached, err := s.answer(ctx, rw, checker, b, tenant, tr)
	if err != nil {
		var oerr *overloadError
		if errors.As(err, &oerr) {
			writeOverloaded(w, oerr)
			return
		}
		// The inputs parsed but could not be simulated (e.g. an
		// instruction the enumerator rejects): the client's data is at
		// fault, not the service.
		wire.WriteError(w, http.StatusUnprocessableEntity, "simulate: %v", err)
		return
	}
	wire.WriteJSON(w, http.StatusOK, RunResponse{
		Key:       rw.keys.Key,
		Cached:    cached,
		Verdict:   verdict(v.Outcome),
		Outcome:   v.Outcome.JSON(),
		Options:   s.effectiveOptions(b),
		ElapsedMS: time.Since(start).Milliseconds(),
		Trace:     tr.Summary(),
	})
}

// row is one litmus source resolved to its verdict keys. The test itself
// is parsed only when needed: a raw-bytes alias hit (memo.Cache.Resolve)
// leaves it nil until a verdict miss must simulate it.
type row struct {
	src  string
	keys memo.Resolved
	test *litmus.Test
}

// resolveRow resolves one source under its request's scope; its error
// is the source's parse failure, prefixed for the client.
func (s *Server) resolveRow(src string, scope memo.Scope) (*row, error) {
	keys, test, err := s.cache.Resolve(src, scope)
	if err != nil {
		return nil, fmt.Errorf("litmus: %w", err)
	}
	return &row{src: src, keys: keys, test: test}, nil
}

// answer serves one resolved row. A resident verdict is served without
// an admission slot (or a tenant token), so a saturated server still
// answers warm traffic at full speed — only work that needs CPU queues
// or pays quota for it — together with the body kept with it. A refused
// admission comes back as the *overloadError; a miss parses the row if
// the alias skipped that, and simulates it.
func (s *Server) answer(ctx context.Context, rw *row, checker sim.Checker, b exec.Budget, tenant string, tr *obs.Trace) (memo.Verdict, bool, error) {
	req := memo.Request{Key: rw.keys.Key, CompleteKey: rw.keys.CompleteKey, Model: checker, Budget: b}
	if v, ok := s.cache.LookupVerdict(req); ok {
		return v, true, nil
	}
	release, oerr := s.admit(ctx, tenant)
	if oerr != nil {
		return memo.Verdict{}, false, oerr
	}
	defer release()
	if rw.test == nil {
		stop := tr.Phase(obs.PhaseParse)
		test, err := litmus.Parse(rw.src)
		stop()
		if err != nil {
			return memo.Verdict{}, false, fmt.Errorf("litmus: %w", err)
		}
		rw.test = test
	}
	req.Test, req.Obs = rw.test, tr
	out, hit, err := s.cache.Simulate(ctx, req)
	return memo.Verdict{Outcome: out}, hit, err
}

// keepBody renders the result/v1 body of a resident verdict's row and
// keeps it with the verdict, so every later streamed hit appends it
// instead of encoding the row. The body is a function of the verdict's
// key, as memo requires: its inputs beside the outcome are the test's
// name, which the canonical test renders, and the model's name, which
// its identity determines (TestStoredBodyIsKeyed).
func (s *Server) keepBody(rw *row, checker sim.Checker, b exec.Budget, out *sim.Outcome) []byte {
	body := wire.ResultBody(campaign.Settled(rw.keys.Name, checker, out))
	s.cache.KeepBody(memo.Request{Key: rw.keys.Key, CompleteKey: rw.keys.CompleteKey, Model: checker, Budget: b}, out, body)
	return body
}

// admit claims a tenant quota token, then an admission slot. The token is
// charged first — quota is the cheaper check, and a tenant over its rate
// should not occupy queue space other tenants could use.
func (s *Server) admit(ctx context.Context, tenant string) (release func(), err *overloadError) {
	if oerr := s.tenants.take(tenant); oerr != nil {
		return nil, oerr
	}
	return s.adm.acquire(ctx)
}

// batchPlan is the front half of /v1/batch: the per-test jobs, keys and
// cache flags. One plan feeds one campaign whichever wire format answers,
// which is what makes the two formats carry the same verdict set by
// construction.
type batchPlan struct {
	jobs   []campaign.Job
	keys   []string
	cached []bool
	bodies [][]byte     // per-test kept result/v1 bodies (streamed hits only)
	errs   []error      // per-test parse errors (nil rows parsed)
	traces []*obs.Trace // per-test phase traces (streaming only)
}

// buildBatch compiles a batch request into its plan. A test that fails to
// parse costs only its own row, like an unreadable file in a cmd/herd
// batch; its error is kept for streaming error/v1 frames.
func (s *Server) buildBatch(req *BatchRequest, checker sim.Checker, b exec.Budget, tenant string, trace bool) *batchPlan {
	n := len(req.Tests)
	p := &batchPlan{
		jobs:   make([]campaign.Job, n),
		keys:   make([]string, n),
		cached: make([]bool, n),
		bodies: make([][]byte, n),
		errs:   make([]error, n),
		traces: make([]*obs.Trace, n),
	}
	scope := memo.NewScope(memo.ModelID(checker), b)
	for i, src := range req.Tests {
		i := i
		rw, perr := s.resolveRow(src, scope)
		if perr != nil {
			p.errs[i] = perr
			p.jobs[i] = campaign.Job{
				Name: fmt.Sprintf("tests[%d]", i),
				Run: func(context.Context, exec.Budget) (*sim.Outcome, error) {
					return nil, perr
				},
			}
			continue
		}
		p.keys[i] = rw.keys.Key
		if trace {
			p.traces[i] = obs.NewTrace()
		}
		p.jobs[i] = campaign.Job{
			Name:  rw.keys.Name,
			Model: checker,
			// Batch jobs share the admission slots (and tenant tokens)
			// with /v1/run — one concurrency envelope for the whole
			// server — with the same brownout fast path for resident
			// verdicts. The campaign runs each body once under b, so jb
			// is the b the keys were derived under.
			Run: func(ctx context.Context, jb exec.Budget) (*sim.Outcome, error) {
				v, hit, err := s.answer(ctx, rw, checker, jb, tenant, p.traces[i])
				if trace && hit && err == nil && v.Body == nil && v.Outcome != nil {
					// Only a streamed row appends a body, and only a
					// verdict that is hit keeps one.
					v.Body = s.keepBody(rw, checker, jb, v.Outcome)
				}
				p.cached[i], p.bodies[i] = hit, v.Body
				return v.Outcome, err
			},
		}
	}
	return p
}

// handleBatch answers POST /v1/batch with one plan and one campaign. The
// wire format only picks the edge: the NDJSON edge writes each row's
// frame as the pool settles it, then the skipped rows and the summary;
// the buffered edge writes the returned report whole.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := wire.DecodeBatchRequest(http.MaxBytesReader(w, r.Body, s.cfg.maxRequestBytes()), &req); err != nil {
		wire.WriteError(w, wire.DecodeStatus(err), "%v", err)
		return
	}
	if err := req.Validate(); err != nil {
		wire.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(req.Tests) > wire.MaxBatchTests {
		wire.WriteError(w, http.StatusRequestEntityTooLarge,
			"tests: %d exceeds the batch limit of %d", len(req.Tests), wire.MaxBatchTests)
		return
	}
	deadline, derr := deadlineBudget(r, req.DeadlineMS)
	if derr != nil {
		if errors.Is(derr, errDeadlineExpired) {
			writeOverloaded(w, s.adm.expired())
			return
		}
		wire.WriteError(w, http.StatusBadRequest, "%v", derr)
		return
	}
	checker, status, err := s.resolveModel(req.Model)
	if err != nil {
		wire.WriteError(w, status, "model: %v", err)
		return
	}
	b := s.budget(req.Budget)
	tenant := r.Header.Get(wire.TenantHeader)

	ctx := r.Context()
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}

	stream := wire.WantsStream(r)
	p := s.buildBatch(&req, checker, b, tenant, stream)
	cfg := campaign.Config{Workers: s.cfg.Workers, Budget: b}
	var out *batchStream
	if stream {
		ctx, out = openBatchStream(ctx, w, p, req.Ordered, s.cfg.heartbeatInterval())
		defer out.close()
		cfg.OnResult = out.emit
	}
	rep := campaign.Run(ctx, cfg, p.jobs)
	if out != nil {
		out.finish(rep, s.effectiveOptions(b))
		return
	}
	wire.WriteJSON(w, http.StatusOK, BatchResponse{
		Report: rep, Cached: p.cached, Keys: p.keys,
		Options: s.effectiveOptions(b),
	})
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	names := cat.BuiltinNames()
	infos := make([]ModelInfo, 0, len(names))
	for _, n := range names {
		m, err := cat.Builtin(n)
		if err != nil {
			wire.WriteError(w, http.StatusInternalServerError, "model %s: %v", n, err)
			return
		}
		infos = append(infos, ModelInfo{Name: n, Fingerprint: m.Fingerprint()})
	}
	wire.WriteJSON(w, http.StatusOK, infos)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, "ok\n")
}
