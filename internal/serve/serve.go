// Package serve is planning-as-a-service: the HTTP+JSON core of
// cmd/sentinel-serve. Every caller used to fork a CLI per request; this
// package keeps one long-running process whose requests multiplex onto
// the experiment harness's worker pool and singleflight plan cache, so
// concurrent identical requests compute once and repeated ones are
// served from memory.
//
// The package is transport scaffolding only — request validation with
// typed JSON errors, admission control with backpressure (bounded
// queue, 429 + Retry-After), health/readiness endpoints, a /metrics
// endpoint, and graceful drain — while all simulation goes
// through internal/experiment's request-shaped entry points
// (experiment.ServePlan, experiment.ServeCell, experiment.RunSweep). A
// sweep takes the exact code path a sentinel-bench invocation takes.
// That is what makes served sweep responses byte-identical to CLI runs.
//
// The HTTP API is documented endpoint by endpoint in docs/SERVING.md.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"sentinel/internal/experiment"
	"sentinel/internal/metrics"
	"sentinel/internal/model"
	"sentinel/internal/policyset"
	"sentinel/internal/trace"
	"sentinel/internal/tracecli"
)

// maxBodyBytes bounds a request body; requests are tiny JSON documents,
// so anything larger is a client error (and an unbounded read would
// undo the memory bound admission control provides).
const maxBodyBytes = 1 << 20

// Config sizes the daemon.
type Config struct {
	// Workers bounds the experiment worker pool each sweep request fans
	// out over; 0 = GOMAXPROCS (experiment.Options.Workers semantics).
	Workers int
	// MaxInFlight bounds concurrently executing requests; 0 defaults
	// to 4.
	MaxInFlight int
	// QueueDepth bounds requests waiting for an execution slot beyond
	// MaxInFlight; everything past it is rejected with 429. 0 defaults
	// to 64. (Waiting requests each hold one handler goroutine and one
	// admission token — the queue is what keeps memory bounded.)
	QueueDepth int
	// RetryAfter is the hint attached to 429/503 responses; 0 defaults
	// to 1s.
	RetryAfter time.Duration
	// Quick makes sweep requests default to trimmed (-quick) sweeps.
	// A request's explicit "quick" field also forces quick on a
	// non-quick server; see docs/SERVING.md.
	Quick bool
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// Server is the daemon core: one shared plan cache, one admission
// controller, one set of request counters. Safe for concurrent use; the
// zero value is unusable — use New.
type Server struct {
	cfg      Config
	cache    *experiment.Cache
	progress *metrics.SweepProgress
	adm      *admission
	reqs     *metrics.RequestStats
	draining atomic.Bool
}

// New builds a server around a fresh plan cache.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:      cfg,
		cache:    experiment.NewCache(),
		progress: metrics.NewSweepProgress(nil),
		adm:      newAdmission(cfg.MaxInFlight, cfg.QueueDepth),
		reqs:     &metrics.RequestStats{},
	}
}

// RequestStats exposes the server's request counters (for the CLI's
// shutdown summary).
func (s *Server) RequestStats() metrics.RequestSnapshot { return s.reqs.Snapshot() }

// CacheStats exposes the shared plan cache's counters.
func (s *Server) CacheStats() metrics.CacheStats { return s.cache.Stats() }

// BeginDrain flips the server to draining: /readyz turns 503 so load
// balancers stop routing here, and new API requests are refused with
// 503 + Retry-After while in-flight ones run to completion. Safe to
// call more than once. The caller (cmd/sentinel-serve) pairs this with
// http.Server.Shutdown, which waits for the in-flight requests.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// options assembles the per-request experiment options: the shared
// cache and sweep progress, the configured pool width, and the
// request's context so a hung-up client abandons its cell.
func (s *Server) options(r *http.Request) experiment.Options {
	return experiment.Options{
		Workers:  s.cfg.Workers,
		Cache:    s.cache,
		Progress: s.progress,
		Ctx:      r.Context(),
	}
}

// Handler returns the daemon's routing table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/v1/plan", s.admitted(s.handlePlan))
	mux.HandleFunc("/v1/simulate", s.admitted(s.handleSimulate))
	mux.HandleFunc("/v1/experiment", s.admitted(s.handleExperiment))
	mux.HandleFunc("/v1/experiments", s.handleExperiments)
	mux.HandleFunc("/v1/catalog", s.handleCatalog)
	mux.HandleFunc("/", s.handleRoot)
	return mux
}

// apiError is the wire form of every non-2xx response: a stable machine
// code, the offending field for validation failures, and a
// human-readable message.
type apiError struct {
	// Code is one of: invalid_request, not_found, method_not_allowed,
	// overloaded, draining, canceled, internal.
	Code string `json:"code"`
	// Field names the rejected request field for invalid_request.
	Field string `json:"field,omitempty"`
	// Message explains the failure.
	Message string `json:"message"`
}

// errorBody wraps apiError under the "error" key.
type errorBody struct {
	Error apiError `json:"error"`
}

// writeError emits a typed JSON error response.
func writeError(w http.ResponseWriter, status int, e apiError) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	encodeJSON(w, errorBody{Error: e}) //nolint:errcheck // response already committed
}

// writeJSON emits a 200 with an indented JSON body.
func writeJSON(w http.ResponseWriter, v any) error {
	w.Header().Set("Content-Type", "application/json")
	return encodeJSON(w, v)
}

// encodeJSON writes v to w as indented JSON, the form of every JSON body.
func encodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// encodeBody is v as indented JSON, the body writeJSON writes.
func encodeBody(v any) ([]byte, error) {
	var b bytes.Buffer
	err := encodeJSON(&b, v)
	return b.Bytes(), err
}

// writeBody emits a 200 with an already encoded JSON body.
func writeBody(w http.ResponseWriter, body []byte) error {
	w.Header().Set("Content-Type", "application/json")
	_, err := w.Write(body)
	return err
}

// retryAfter stamps the backpressure hint onto a 429/503.
func (s *Server) retryAfter(w http.ResponseWriter) {
	secs := int(s.cfg.RetryAfter.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// writeExecError maps a request-execution failure to a response:
// validation failures (experiment.ErrBadRequest) are 400s naming the
// field, client hang-ups are 499-style cancellations, everything else
// is a 500 carrying the error text.
func writeExecError(w http.ResponseWriter, r *http.Request, err error) {
	var reqErr *experiment.RequestError
	switch {
	case errors.As(err, &reqErr):
		writeError(w, http.StatusBadRequest, apiError{
			Code: "invalid_request", Field: reqErr.Field, Message: reqErr.Reason})
	case r.Context().Err() != nil:
		// The client went away; nobody reads this body, but the status
		// keeps logs and tests honest.
		writeError(w, 499, apiError{Code: "canceled", Message: "client closed request"})
	default:
		writeError(w, http.StatusInternalServerError, apiError{
			Code: "internal", Message: err.Error()})
	}
}

// admitted wraps an API handler with the full request lifecycle:
// method check, drain refusal, admission with backpressure,
// the execution-slot wait, and latency/outcome accounting. The wrapped
// handler reports its outcome by return value.
func (s *Server) admitted(h func(w http.ResponseWriter, r *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost && r.Method != http.MethodGet {
			w.Header().Set("Allow", "GET, POST")
			writeError(w, http.StatusMethodNotAllowed, apiError{
				Code: "method_not_allowed", Message: fmt.Sprintf("method %s not allowed; use GET or POST", r.Method)})
			return
		}
		if s.draining.Load() {
			s.reqs.Reject()
			s.retryAfter(w)
			writeError(w, http.StatusServiceUnavailable, apiError{
				Code: "draining", Message: "server is draining; retry against another instance"})
			return
		}
		release, err := s.adm.Admit()
		if err != nil {
			s.reqs.Reject()
			s.retryAfter(w)
			writeError(w, http.StatusTooManyRequests, apiError{
				Code: "overloaded", Message: fmt.Sprintf("%v; retry after %v", err, s.cfg.RetryAfter)})
			return
		}
		defer release()
		//lint:allow determinism: request latency is host wall-clock by definition; it never feeds a simulated quantity
		start := time.Now()
		s.reqs.Begin()
		ok := false
		defer func() {
			//lint:allow determinism: request latency is host wall-clock by definition; it never feeds a simulated quantity
			s.reqs.End(time.Since(start), ok)
		}()
		stop, err := s.adm.Start(r.Context())
		if err != nil {
			// The client hung up while queued; nothing to run.
			writeError(w, 499, apiError{Code: "canceled", Message: "client closed request while queued"})
			return
		}
		defer stop()
		if err := h(w, r); err != nil {
			writeExecError(w, r, err)
			return
		}
		ok = true
	}
}

// decodeRequest fills dst, a pointer to a request struct, from a
// request: first from the JSON body of a POST, then from the URL query
// on any method, whose parameters override the body. A query parameter
// is looked up by its field's json tag, embedded structs included, so
// the tags are the one table of names for both transports. Unknown
// names are client errors in either, so typos like "modle" fail loudly
// instead of simulating a default.
func decodeRequest(r *http.Request, dst any) error {
	if r.Method == http.MethodPost {
		body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
		switch {
		case err != nil:
			return badBody("reading request body: %v", err)
		case len(body) > maxBodyBytes:
			return badBody("request body exceeds %d bytes", maxBodyBytes)
		case len(body) > 0:
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(dst); err != nil {
				return badBody("invalid JSON body: %v", err)
			}
		}
	}
	if r.URL.RawQuery == "" {
		return nil
	}
	q, err := url.ParseQuery(r.URL.RawQuery)
	if err != nil {
		return &experiment.RequestError{Field: "query", Reason: err.Error()}
	}
	names := make([]string, 0, len(q))
	for name := range q {
		names = append(names, name)
	}
	sort.Strings(names)
	req := reflect.ValueOf(dst).Elem()
	for _, name := range names {
		if err := setParam(req, name, q[name]); err != nil {
			return err
		}
	}
	return nil
}

// setParam parses one query parameter's values into the field of req
// that name selects. An empty value counts as absent; an unknown or
// repeated name, a malformed value, or a field with no scalar query
// form (chaos) is a *experiment.RequestError naming the parameter.
func setParam(req reflect.Value, name string, vals []string) error {
	bad := func(format string, args ...any) error {
		return &experiment.RequestError{Field: name, Reason: fmt.Sprintf(format, args...)}
	}
	f := jsonField(req, name)
	switch {
	case name == "":
		return &experiment.RequestError{Field: "query", Reason: "parameter with an empty name"}
	case !f.IsValid():
		return bad("unknown parameter %q", name)
	case len(vals) > 1:
		return bad("given %d times", len(vals))
	case vals[0] == "":
		return nil
	}
	v := vals[0]
	switch f.Kind() {
	case reflect.String:
		f.SetString(v)
	case reflect.Int, reflect.Int64:
		n, err := strconv.ParseInt(v, 10, f.Type().Bits())
		if err != nil {
			return bad("not an integer: %q", v)
		}
		f.SetInt(n)
	case reflect.Float64:
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return bad("not a number: %q", v)
		}
		f.SetFloat(x)
	case reflect.Bool:
		b, err := strconv.ParseBool(v)
		if err != nil {
			return bad("not a boolean: %q", v)
		}
		f.SetBool(b)
	default:
		return bad("not a query parameter; send it in a JSON body")
	}
	return nil
}

// jsonField finds the field of struct v whose json tag names it,
// searching embedded structs too; the zero Value if there is none.
func jsonField(v reflect.Value, name string) reflect.Value {
	for i := 0; i < v.NumField(); i++ {
		sf := v.Type().Field(i)
		if sf.Anonymous && sf.Type.Kind() == reflect.Struct {
			if f := jsonField(v.Field(i), name); f.IsValid() {
				return f
			}
		} else if tag, _, _ := strings.Cut(sf.Tag.Get("json"), ","); tag == name {
			return v.Field(i)
		}
	}
	return reflect.Value{}
}

// badBody is a body-level *experiment.RequestError.
func badBody(format string, args ...any) error {
	return &experiment.RequestError{Field: "body", Reason: fmt.Sprintf(format, args...)}
}

// handleHealthz is liveness: 200 as long as the process serves.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is readiness: 200 while accepting work, 503 once
// draining (so load balancers stop routing here before shutdown).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		s.retryAfter(w)
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

// handlePlan serves POST /v1/plan: Sentinel's profiling/planning stage
// for one workload, as a PlanSummary JSON document.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) error {
	var req experiment.PlanRequest
	if err := decodeRequest(r, &req); err != nil {
		return err
	}
	body, err := experiment.ServePlan(s.options(r), req, func(sum *experiment.PlanSummary) ([]byte, error) {
		return encodeBody(sum)
	})
	if err != nil {
		return err
	}
	return writeBody(w, body)
}

// runSummary is the wire form of a simulated cell: identity, virtual
// durations (nanoseconds), and the steady step's traffic accounting.
// It is deterministic — identical requests serialize identically.
type runSummary struct {
	Model string `json:"model"`
	Batch int    `json:"batch"`
	// Policy echoes the requested registry name, as Platform echoes
	// the requested platform.
	Policy   string `json:"policy"`
	Platform string `json:"platform"`
	Steps    int    `json:"steps"`
	// SteadyStepNS is the last (warmed-up) step's virtual duration;
	// TotalNS sums all steps.
	SteadyStepNS int64 `json:"steady_step_ns"`
	TotalNS      int64 `json:"total_ns"`
	// ThroughputPerSec is batch samples per virtual second at steady
	// state.
	ThroughputPerSec float64 `json:"throughput_per_sec"`
	// Steady-step traffic and overhead accounting.
	StallNS          int64 `json:"stall_ns"`
	FaultNS          int64 `json:"fault_ns"`
	MigratedInBytes  int64 `json:"migrated_in_bytes"`
	MigratedOutBytes int64 `json:"migrated_out_bytes"`
	DemandMigrations int64 `json:"demand_migrations"`
	// Diverged reports the run finished degraded (demand-only mode).
	Diverged bool `json:"diverged,omitempty"`
	// Replans and RecoveredSteps report the adaptive controller's
	// outcomes when the cell ran with online: true.
	Replans        int `json:"replans,omitempty"`
	RecoveredSteps int `json:"recovered_steps,omitempty"`
}

// simulateRequest is a CellRequest plus serving-only knobs.
type simulateRequest struct {
	experiment.CellRequest
	// TraceFormat, when set ("chrome", "text", "stalls"), re-executes
	// the cell uncached with a private trace bus and returns the
	// exported trace as the response body instead of the JSON summary.
	TraceFormat string `json:"trace_format,omitempty"`
}

// handleSimulate serves POST /v1/simulate: one simulation cell through
// the shared plan cache, or — with trace_format — one traced, uncached
// execution whose response body is the exported event stream.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) error {
	var req simulateRequest
	if err := decodeRequest(r, &req); err != nil {
		return err
	}
	if req.TraceFormat != "" {
		return s.traceCell(w, r, req)
	}
	// A repeated request gets the stored reply and its run, which still
	// counts its controller outcomes: a repeated online cell adds its
	// replans again.
	body, run, err := experiment.ServeCell(s.options(r), req.CellRequest, func(run *metrics.RunStats) ([]byte, error) {
		return encodeBody(summarize(run, req.CellRequest))
	})
	if err != nil {
		return err
	}
	s.reqs.ObserveRun(run)
	return writeBody(w, body)
}

// traceCell answers a simulate request with trace_format: the cell
// re-executes uncached with a private trace bus, because a cached cell
// never re-executes and so emits no events, and the response body is the
// exported event stream.
func (s *Server) traceCell(w http.ResponseWriter, r *http.Request, req simulateRequest) error {
	if !tracecli.ValidFormat(req.TraceFormat) {
		return &experiment.RequestError{Field: "trace_format",
			Reason: fmt.Sprintf("unknown trace format %q (known: %v)", req.TraceFormat, trace.Formats())}
	}
	o := s.options(r)
	o.NoCache = true
	o.Cache = nil
	o.Trace = trace.NewBus(0)
	run, err := experiment.RunCell(o, req.CellRequest)
	if err != nil {
		return err
	}
	s.reqs.ObserveRun(run)
	if req.TraceFormat == trace.FormatChrome {
		w.Header().Set("Content-Type", "application/json")
	} else {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	return tracecli.ExportBus(w, req.TraceFormat, o.Trace)
}

// summarize is the runSummary of a run that req asked for.
func summarize(run *metrics.RunStats, req experiment.CellRequest) runSummary {
	st := run.SteadyStep()
	sum := runSummary{
		Model: run.Model, Batch: run.Batch, Policy: req.Policy,
		Platform:       req.Normalized().Platform,
		Steps:          len(run.Steps),
		SteadyStepNS:   int64(run.SteadyStepTime()),
		TotalNS:        int64(run.TotalTime()),
		Diverged:       run.Diverged,
		Replans:        run.Replans,
		RecoveredSteps: run.RecoveredSteps,
	}
	if sum.SteadyStepNS > 0 {
		sum.ThroughputPerSec = run.Throughput()
	}
	if st != nil {
		sum.StallNS = int64(st.StallTime)
		sum.FaultNS = int64(st.FaultTime)
		sum.MigratedInBytes = st.MigratedIn
		sum.MigratedOutBytes = st.MigratedOut
		sum.DemandMigrations = st.DemandMigrations
	}
	return sum
}

// sweepRequest is a SweepRequest plus its rendering.
type sweepRequest struct {
	experiment.SweepRequest
	// Format is text (the default), csv or json.
	Format string `json:"format,omitempty"`
}

// handleExperiment serves GET/POST /v1/experiment: one whole paper
// table or figure, rendered in the requested format. The bytes are
// identical to the equivalent sentinel-bench run — same runner, same
// renderer.
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) error {
	var req sweepRequest
	if err := decodeRequest(r, &req); err != nil {
		return err
	}
	switch req.Format {
	case "", "text", "csv", "json":
	default:
		return &experiment.RequestError{Field: "format",
			Reason: fmt.Sprintf("unknown format %q (known: text, csv, json)", req.Format)}
	}
	req.Quick = req.Quick || s.cfg.Quick
	t, err := experiment.RunSweep(s.options(r), req.SweepRequest)
	if err != nil {
		return err
	}
	switch req.Format {
	case "csv":
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		return t.WriteCSV(w)
	case "json":
		w.Header().Set("Content-Type", "application/json")
		return t.WriteJSON(w)
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, err := fmt.Fprintln(w, t)
		return err
	}
}

// handleExperiments serves GET /v1/experiments: the registry ids, in
// the CLI's presentation order.
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{ //nolint:errcheck // response already committed
		"experiments": experiment.IDs(),
		"default":     experiment.DefaultIDs(),
	})
}

// handleCatalog serves GET /v1/catalog: the model, policy, and
// platform names requests validate against.
func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{ //nolint:errcheck // response already committed
		"models":    model.Names(),
		"policies":  policyset.Names(),
		"platforms": experiment.Platforms(),
	})
}

// handleRoot 404s everything unrouted with a typed JSON error (the mux
// falls through to "/" for unknown paths).
func (s *Server) handleRoot(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusNotFound, apiError{
		Code:    "not_found",
		Message: fmt.Sprintf("no such endpoint %q; see docs/SERVING.md (endpoints: /healthz /readyz /metrics /v1/plan /v1/simulate /v1/experiment /v1/experiments /v1/catalog)", r.URL.Path),
	})
}
