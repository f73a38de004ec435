package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"sentinel/internal/experiment"
)

// doJSON drives one request through the handler and decodes the JSON
// response body into out (when out is non-nil).
func doJSON(t *testing.T, h http.Handler, method, target, body string, out any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body == "" {
		rd = bytes.NewReader(nil)
	} else {
		rd = bytes.NewReader([]byte(body))
	}
	req := httptest.NewRequest(method, target, rd)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if out != nil {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: undecodable body %q: %v", method, target, w.Body.String(), err)
		}
	}
	return w
}

// errCode extracts the typed error code and field from a response body.
func errCode(t *testing.T, w *httptest.ResponseRecorder) (code, field string) {
	t.Helper()
	var b errorBody
	if err := json.Unmarshal(w.Body.Bytes(), &b); err != nil {
		t.Fatalf("error body %q not JSON: %v", w.Body.String(), err)
	}
	return b.Error.Code, b.Error.Field
}

func TestHealthz(t *testing.T) {
	h := New(Config{}).Handler()
	w := doJSON(t, h, http.MethodGet, "/healthz", "", nil)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "ok") {
		t.Fatalf("healthz: %d %q", w.Code, w.Body.String())
	}
}

func TestReadyzFlipsDuringDrain(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	if w := doJSON(t, h, http.MethodGet, "/readyz", "", nil); w.Code != http.StatusOK {
		t.Fatalf("readyz before drain: %d", w.Code)
	}
	s.BeginDrain()
	w := doJSON(t, h, http.MethodGet, "/readyz", "", nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("draining readyz missing Retry-After")
	}
	// Liveness is not readiness: healthz stays 200 through the drain.
	if w := doJSON(t, h, http.MethodGet, "/healthz", "", nil); w.Code != http.StatusOK {
		t.Errorf("healthz during drain: %d, want 200", w.Code)
	}
	// New API work is refused with the typed draining error.
	w = doJSON(t, h, http.MethodPost, "/v1/simulate",
		`{"model":"resnet32","batch":32,"policy":"sentinel","steps":2}`, nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("API during drain: %d, want 503", w.Code)
	}
	if code, _ := errCode(t, w); code != "draining" {
		t.Errorf("drain error code %q, want draining", code)
	}
	if s.RequestStats().Rejected == 0 {
		t.Error("drain refusal not counted as a rejection")
	}
}

// validationCase is one request the API must reject, and the typed
// error it must reject it with.
type validationCase struct {
	name           string
	method, target string
	body           string
	status         int
	code, field    string
}

func TestValidationErrors(t *testing.T) {
	h := New(Config{}).Handler()
	cases := []validationCase{
		{"unknown model", http.MethodPost, "/v1/simulate",
			`{"model":"resnet9000","batch":32,"policy":"sentinel"}`,
			http.StatusBadRequest, "invalid_request", "model"},
		{"zero batch", http.MethodPost, "/v1/simulate",
			`{"model":"resnet32","batch":0,"policy":"sentinel"}`,
			http.StatusBadRequest, "invalid_request", "batch"},
		{"unknown policy", http.MethodPost, "/v1/simulate",
			`{"model":"resnet32","batch":32,"policy":"oracle"}`,
			http.StatusBadRequest, "invalid_request", "policy"},
		{"unknown trace format", http.MethodPost, "/v1/simulate",
			`{"model":"resnet32","batch":32,"policy":"sentinel","trace_format":"svg"}`,
			http.StatusBadRequest, "invalid_request", "trace_format"},
		{"malformed JSON", http.MethodPost, "/v1/simulate",
			`{"model":`, http.StatusBadRequest, "invalid_request", "body"},
		{"unknown JSON field", http.MethodPost, "/v1/simulate",
			`{"modle":"resnet32"}`, http.StatusBadRequest, "invalid_request", "body"},
		{"unknown experiment", http.MethodGet, "/v1/experiment?id=fig99", "",
			http.StatusBadRequest, "invalid_request", "id"},
		{"bad experiment format", http.MethodGet, "/v1/experiment?id=fig5&format=xml", "",
			http.StatusBadRequest, "invalid_request", "format"},
		{"bad quick value", http.MethodGet, "/v1/experiment?id=fig5&quick=maybe", "",
			http.StatusBadRequest, "invalid_request", "quick"},
		{"plan unknown platform", http.MethodPost, "/v1/plan",
			`{"model":"resnet32","batch":32,"platform":"tpu"}`,
			http.StatusBadRequest, "invalid_request", "platform"},
		{"bad query integer", http.MethodGet, "/v1/simulate?model=resnet32&batch=many&policy=sentinel", "",
			http.StatusBadRequest, "invalid_request", "batch"},
	}
	cases = append(cases, sizingCases...)
	cases = append(cases, queryCases...)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := doJSON(t, h, tc.method, tc.target, tc.body, nil)
			if w.Code != tc.status {
				t.Fatalf("status %d, want %d (body %s)", w.Code, tc.status, w.Body.String())
			}
			code, field := errCode(t, w)
			if code != tc.code || field != tc.field {
				t.Errorf("error (%q, %q), want (%q, %q)", code, field, tc.code, tc.field)
			}
		})
	}
}

// sizingCases are out-of-range sizing inputs: a non-finite or
// overflowing fast_pct, a fast tier under one page, and batches above
// experiment.BatchLimit, over GET and POST.
var sizingCases = []validationCase{
	{"GET Inf fast_pct", http.MethodGet, "/v1/simulate?model=resnet32&batch=32&policy=sentinel&fast_pct=Inf", "",
		http.StatusBadRequest, "invalid_request", "fast_pct"},
	{"GET NaN fast_pct", http.MethodGet, "/v1/simulate?model=resnet32&batch=32&policy=sentinel&fast_pct=NaN", "",
		http.StatusBadRequest, "invalid_request", "fast_pct"},
	{"GET overflowing fast_pct", http.MethodGet, "/v1/simulate?model=resnet32&batch=32&policy=sentinel&fast_pct=1e300", "",
		http.StatusBadRequest, "invalid_request", "fast_pct"},
	{"POST overflowing fast_pct", http.MethodPost, "/v1/simulate",
		`{"model":"resnet32","batch":32,"policy":"sentinel","fast_pct":1e300}`,
		http.StatusBadRequest, "invalid_request", "fast_pct"},
	{"GET fast_pct under one page", http.MethodGet, "/v1/simulate?model=resnet32&batch=32&policy=sentinel&fast_pct=1e-9", "",
		http.StatusBadRequest, "invalid_request", "fast_pct"},
	{"POST fast_bytes under one page", http.MethodPost, "/v1/simulate",
		`{"model":"resnet32","batch":32,"policy":"sentinel","fast_bytes":1}`,
		http.StatusBadRequest, "invalid_request", "fast_bytes"},
	{"GET plan huge batch", http.MethodGet, "/v1/plan?model=resnet32&batch=1125899906842624", "",
		http.StatusBadRequest, "invalid_request", "batch"},
	{"POST plan huge batch", http.MethodPost, "/v1/plan",
		`{"model":"resnet32","batch":1125899906842624}`,
		http.StatusBadRequest, "invalid_request", "batch"},
	{"GET simulate batch above limit", http.MethodGet, "/v1/simulate?model=resnet32&batch=16385&policy=sentinel", "",
		http.StatusBadRequest, "invalid_request", "batch"},
	{"POST simulate batch above limit", http.MethodPost, "/v1/simulate",
		`{"model":"resnet32","batch":16385,"policy":"sentinel"}`,
		http.StatusBadRequest, "invalid_request", "batch"},
}

// queryCases are query strings the JSON field table rejects: unknown
// and repeated parameters, a JSON-only field, and a malformed escape, on
// every method.
var queryCases = []validationCase{
	{"GET simulate unknown parameter", http.MethodGet,
		"/v1/simulate?model=resnet32&batch=32&policy=sentinel&steps=2&fastpct=20", "",
		http.StatusBadRequest, "invalid_request", "fastpct"},
	{"GET experiment unknown parameter", http.MethodGet, "/v1/experiment?id=table1&fromat=csv", "",
		http.StatusBadRequest, "invalid_request", "fromat"},
	{"POST experiment unknown parameter", http.MethodPost, "/v1/experiment?fromat=csv",
		`{"id":"table1"}`, http.StatusBadRequest, "invalid_request", "fromat"},
	{"POST plan unknown parameter", http.MethodPost, "/v1/plan?bacth=32",
		`{"model":"resnet32","batch":32}`, http.StatusBadRequest, "invalid_request", "bacth"},
	{"GET plan repeated parameter", http.MethodGet, "/v1/plan?model=resnet32&batch=32&batch=64", "",
		http.StatusBadRequest, "invalid_request", "batch"},
	{"GET simulate chaos parameter", http.MethodGet,
		"/v1/simulate?model=resnet32&batch=32&policy=sentinel&chaos=42", "",
		http.StatusBadRequest, "invalid_request", "chaos"},
	{"GET simulate overflowing steps", http.MethodGet,
		"/v1/simulate?model=resnet32&batch=32&policy=sentinel&steps=99999999999999999999", "",
		http.StatusBadRequest, "invalid_request", "steps"},
	{"GET plan malformed escape", http.MethodGet, "/v1/plan?model=resnet32&batch=3%2", "",
		http.StatusBadRequest, "invalid_request", "query"},
}

// TestQueryOverridesBody pins the query-over-body rule on a POST: the
// body asks for 2 steps and the query for 3, and 3 run.
func TestQueryOverridesBody(t *testing.T) {
	h := New(Config{}).Handler()
	var sum runSummary
	w := doJSON(t, h, http.MethodPost, "/v1/simulate?steps=3",
		`{"model":"resnet32","batch":32,"policy":"sentinel","steps":2}`, &sum)
	if w.Code != http.StatusOK {
		t.Fatalf("simulate: %d %s", w.Code, w.Body.String())
	}
	if sum.Steps != 3 {
		t.Errorf("ran %d steps, want the query's 3", sum.Steps)
	}
}

func TestMethodAndPathErrors(t *testing.T) {
	h := New(Config{}).Handler()
	w := doJSON(t, h, http.MethodDelete, "/v1/simulate", "", nil)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE: %d, want 405", w.Code)
	}
	if code, _ := errCode(t, w); code != "method_not_allowed" {
		t.Errorf("code %q", code)
	}
	for _, path := range []string{"/v1/nope", "/v1/shard"} {
		w = doJSON(t, h, http.MethodGet, path, "", nil)
		if w.Code != http.StatusNotFound {
			t.Fatalf("%s: %d, want 404", path, w.Code)
		}
		if code, _ := errCode(t, w); code != "not_found" {
			t.Errorf("%s: code %q", path, code)
		}
	}
	// Every endpoint the 404 message lists must route somewhere, so a
	// stale entry in the list fails here.
	var b errorBody
	if err := json.Unmarshal(w.Body.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	_, list, ok := strings.Cut(b.Error.Message, "(endpoints: ")
	if !ok {
		t.Fatalf("404 message lists no endpoints: %q", b.Error.Message)
	}
	for _, path := range strings.Fields(strings.TrimSuffix(list, ")")) {
		if w := doJSON(t, h, http.MethodGet, path, "", nil); w.Code == http.StatusNotFound {
			t.Errorf("404 message lists %s, which answers 404", path)
		}
	}
}

func TestBackpressure429(t *testing.T) {
	s := New(Config{MaxInFlight: 1, QueueDepth: 1})
	h := s.Handler()
	// Occupy the whole admission budget (1 running + 1 queued) directly,
	// so the HTTP-level rejection is deterministic.
	rel1, err := s.adm.Admit()
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := s.adm.Admit()
	if err != nil {
		t.Fatal(err)
	}
	w := doJSON(t, h, http.MethodPost, "/v1/simulate",
		`{"model":"resnet32","batch":32,"policy":"sentinel","steps":2}`, nil)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated: %d, want 429 (body %s)", w.Code, w.Body.String())
	}
	if code, _ := errCode(t, w); code != "overloaded" {
		t.Errorf("code %q, want overloaded", code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}
	if got := s.RequestStats().Rejected; got != 1 {
		t.Errorf("rejected counter %d, want 1", got)
	}
	// Releasing the budget un-saturates the server.
	rel1()
	rel2()
	w = doJSON(t, h, http.MethodPost, "/v1/simulate",
		`{"model":"resnet32","batch":32,"policy":"sentinel","steps":2}`, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("after release: %d (body %s)", w.Code, w.Body.String())
	}
}

func TestAdmissionController(t *testing.T) {
	a := newAdmission(1, 1)
	r1, err := a.Admit()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.Admit()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Admit(); !errors.Is(err, ErrSaturated) {
		t.Fatalf("third admit: %v, want ErrSaturated", err)
	}
	stop, err := a.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The second admitted request cannot start while the slot is held —
	// its Start must respect cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.Start(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued start under cancel: %v", err)
	}
	stop()
	stop2, err := a.Start(context.Background())
	if err != nil {
		t.Fatalf("start after slot freed: %v", err)
	}
	stop2()
	r1()
	r2()
	if adm, run := a.Queued(); adm != 0 || run != 0 {
		t.Errorf("tokens leaked: admitted %d running %d", adm, run)
	}
}

func TestSimulateAndPlanEndpoints(t *testing.T) {
	h := New(Config{}).Handler()
	var sum runSummary
	w := doJSON(t, h, http.MethodPost, "/v1/simulate",
		`{"model":"resnet32","batch":32,"policy":"sentinel","fast_pct":20,"steps":2}`, &sum)
	if w.Code != http.StatusOK {
		t.Fatalf("simulate: %d %s", w.Code, w.Body.String())
	}
	if sum.SteadyStepNS <= 0 || sum.ThroughputPerSec <= 0 {
		t.Errorf("implausible summary: %+v", sum)
	}
	// The GET form with query parameters is equivalent.
	var sum2 runSummary
	w = doJSON(t, h, http.MethodGet,
		"/v1/simulate?model=resnet32&batch=32&policy=sentinel&fast_pct=20&steps=2", "", &sum2)
	if w.Code != http.StatusOK {
		t.Fatalf("simulate GET: %d %s", w.Code, w.Body.String())
	}
	if sum != sum2 {
		t.Errorf("GET and POST disagree:\n%+v\n%+v", sum, sum2)
	}
	var plan experiment.PlanSummary
	w = doJSON(t, h, http.MethodPost, "/v1/plan", `{"model":"resnet32","batch":32}`, &plan)
	if w.Code != http.StatusOK {
		t.Fatalf("plan: %d %s", w.Code, w.Body.String())
	}
	if plan.Tensors == 0 || plan.ShortLived == 0 {
		t.Errorf("empty plan summary: %+v", plan)
	}
}

// TestSimulateEchoesPolicy checks that a simulate response names the
// policy the request asked for, including the Sentinel ablations that
// share a runtime with sentinel and sentinel-gpu.
func TestSimulateEchoesPolicy(t *testing.T) {
	h := New(Config{}).Handler()
	for _, tc := range []struct{ policy, platform string }{
		{"sentinel-gpu-direct", "gpu"},
		{"sentinel-detmi", "optane"},
		{"sentinel", "gpu"},
		{"sentinel-gpu", "optane"},
	} {
		var sum runSummary
		body := fmt.Sprintf(`{"model":"resnet32","batch":32,"policy":%q,"platform":%q,"fast_pct":20,"steps":2}`,
			tc.policy, tc.platform)
		w := doJSON(t, h, http.MethodPost, "/v1/simulate", body, &sum)
		if w.Code != http.StatusOK {
			t.Fatalf("%s on %s: %d %s", tc.policy, tc.platform, w.Code, w.Body.String())
		}
		if sum.Policy != tc.policy {
			t.Errorf("%s on %s: response names policy %q", tc.policy, tc.platform, sum.Policy)
		}
	}
}

func TestTracedSimulate(t *testing.T) {
	h := New(Config{}).Handler()
	w := doJSON(t, h, http.MethodPost, "/v1/simulate",
		`{"model":"resnet32","batch":32,"policy":"sentinel","steps":2,"trace_format":"text"}`, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("traced simulate: %d %s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "step") {
		t.Errorf("text trace has no step events: %.200s", w.Body.String())
	}
	// Chrome format must be strict JSON.
	w = doJSON(t, h, http.MethodPost, "/v1/simulate",
		`{"model":"resnet32","batch":32,"policy":"sentinel","steps":2,"trace_format":"chrome"}`, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("chrome trace: %d", w.Code)
	}
	var anyJSON any
	if err := json.Unmarshal(w.Body.Bytes(), &anyJSON); err != nil {
		t.Errorf("chrome trace is not valid JSON: %v", err)
	}
}

func TestCatalogAndExperimentList(t *testing.T) {
	h := New(Config{}).Handler()
	var cat struct {
		Models    []string `json:"models"`
		Policies  []string `json:"policies"`
		Platforms []string `json:"platforms"`
	}
	if w := doJSON(t, h, http.MethodGet, "/v1/catalog", "", &cat); w.Code != http.StatusOK {
		t.Fatalf("catalog: %d", w.Code)
	}
	if len(cat.Models) == 0 || len(cat.Policies) == 0 || len(cat.Platforms) < 4 {
		t.Errorf("catalog incomplete: %+v", cat)
	}
	var ids struct {
		Experiments []string `json:"experiments"`
	}
	if w := doJSON(t, h, http.MethodGet, "/v1/experiments", "", &ids); w.Code != http.StatusOK {
		t.Fatalf("experiments: %d", w.Code)
	}
	if len(ids.Experiments) == 0 {
		t.Error("no experiment ids listed")
	}
}

// TestGoldenServedVsCLI pins the daemon's core guarantee: the bytes a
// served experiment returns are identical to what the CLI emits for the
// same configuration. The reference is the sequential, cache-free
// renderer — exactly what `sentinel-bench -seq -exp ID -format csv`
// writes to stdout (per table; the CLI adds no per-table framing in csv
// and json formats).
func TestGoldenServedVsCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	h := New(Config{Workers: 1}).Handler()
	for _, id := range []string{"table1", "fig5", "robustness"} {
		for _, format := range []string{"csv", "json"} {
			t.Run(id+"/"+format, func(t *testing.T) {
				direct, err := experiment.Run(id, experiment.Options{
					Workers: 1, NoCache: true, Quick: true, Steps: 3})
				if err != nil {
					t.Fatal(err)
				}
				var want bytes.Buffer
				switch format {
				case "csv":
					err = direct.WriteCSV(&want)
				case "json":
					err = direct.WriteJSON(&want)
				}
				if err != nil {
					t.Fatal(err)
				}
				target := fmt.Sprintf("/v1/experiment?id=%s&quick=1&steps=3&format=%s", id, format)
				w := doJSON(t, h, http.MethodGet, target, "", nil)
				if w.Code != http.StatusOK {
					t.Fatalf("served: %d %s", w.Code, w.Body.String())
				}
				if !bytes.Equal(w.Body.Bytes(), want.Bytes()) {
					t.Errorf("served bytes diverge from CLI renderer\n--- served ---\n%s--- cli ---\n%s",
						w.Body.String(), want.String())
				}
			})
		}
	}
}

// TestConcurrentIdenticalRequests aims a burst of identical simulate
// requests at one server: every response must be 200 with identical
// bodies, and the plan cache must show the singleflight collapse (one
// miss, the rest hits or waits). Run under -race in CI, this is also
// the serving layer's data-race probe.
func TestConcurrentIdenticalRequests(t *testing.T) {
	s := New(Config{MaxInFlight: 8, QueueDepth: 64})
	h := s.Handler()
	const n = 32
	bodies := make([]string, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodPost, "/v1/simulate",
				strings.NewReader(`{"model":"resnet32","batch":32,"policy":"sentinel","fast_pct":20,"steps":2}`))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code == http.StatusOK {
				bodies[i] = w.Body.String()
			} else {
				bodies[i] = fmt.Sprintf("HTTP %d: %s", w.Code, w.Body.String())
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("response %d diverged:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	if !strings.HasPrefix(bodies[0], "{") {
		t.Fatalf("burst failed: %s", bodies[0])
	}
	cs := s.CacheStats()
	if cs.Misses == 0 || cs.Hits+cs.Waits == 0 {
		t.Errorf("no singleflight collapse visible in cache stats: %+v", cs)
	}
	rq := s.RequestStats()
	if rq.Completed != n || rq.InFlight != 0 {
		t.Errorf("request accounting: %+v, want %d completed, 0 in flight", rq, n)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	doJSON(t, h, http.MethodPost, "/v1/simulate",
		`{"model":"resnet32","batch":32,"policy":"sentinel","steps":2}`, nil)
	w := doJSON(t, h, http.MethodGet, "/metrics", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: %d", w.Code)
	}
	body := w.Body.String()
	for _, want := range []string{
		"sentinel_ready 1",
		"sentinel_requests_accepted_total 1",
		"sentinel_requests_completed_total 1",
		"sentinel_requests_in_flight 0",
		"sentinel_plan_cache_misses_total",
		"sentinel_request_latency_seconds_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
	s.BeginDrain()
	if body := doJSON(t, h, http.MethodGet, "/metrics", "", nil).Body.String(); !strings.Contains(body, "sentinel_ready 0") {
		t.Errorf("draining server still reports ready:\n%s", body)
	}
}

// metricValue extracts one `name value` line from a /metrics body.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		f := strings.Fields(line)
		if len(f) == 2 && f[0] == name {
			var v float64
			if _, err := fmt.Sscanf(f[1], "%g", &v); err != nil {
				t.Fatalf("metric %s: unparseable value %q", name, f[1])
			}
			return v
		}
	}
	t.Fatalf("metric %s missing from /metrics body:\n%s", name, body)
	return 0
}

// TestControllerMetrics drives one static-degraded and one adaptive
// simulate request through the service and checks that the controller
// counters the responses report are the ones /metrics aggregates.
func TestControllerMetrics(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	// A capacity shrink on the constrained GPU platform: the static run
	// diverges to demand-only paging; the adaptive run gets the -online
	// defaults and reports whatever the controller managed.
	const chaosCell = `{"model":"resnet32","batch":128,"policy":"sentinel-gpu","platform":"gpu",` +
		`"fast_pct":20,"steps":12,"chaos":{"seed":42,"shrink_at_step":1,"shrink_frac":0.25}`

	var static struct {
		Diverged bool `json:"diverged"`
		Replans  int  `json:"replans"`
	}
	if w := doJSON(t, h, http.MethodPost, "/v1/simulate", chaosCell+"}", &static); w.Code != http.StatusOK {
		t.Fatalf("static cell: %d %s", w.Code, w.Body.String())
	}
	if !static.Diverged || static.Replans != 0 {
		t.Fatalf("static degraded cell should diverge without replans, got %+v", static)
	}
	var online struct {
		Diverged       bool `json:"diverged"`
		Replans        int  `json:"replans"`
		RecoveredSteps int  `json:"recovered_steps"`
	}
	if w := doJSON(t, h, http.MethodPost, "/v1/simulate", chaosCell+`,"online":true}`, &online); w.Code != http.StatusOK {
		t.Fatalf("online cell: %d %s", w.Code, w.Body.String())
	}
	if online.Replans == 0 && !online.Diverged {
		t.Fatalf("online cell under a capacity shrink neither replanned nor degraded: %+v", online)
	}

	body := doJSON(t, h, http.MethodGet, "/metrics", "", nil).Body.String()
	wantDemandOnly := 1.0 // the static cell
	if online.Diverged {
		wantDemandOnly++
	}
	wantRecovered := 0.0
	if online.RecoveredSteps > 0 {
		wantRecovered = 1
	}
	if got := metricValue(t, body, "sentinel_controller_replans_total"); got != float64(online.Replans) {
		t.Errorf("sentinel_controller_replans_total = %g, want %d", got, online.Replans)
	}
	if got := metricValue(t, body, "sentinel_controller_recovered_runs_total"); got != wantRecovered {
		t.Errorf("sentinel_controller_recovered_runs_total = %g, want %g", got, wantRecovered)
	}
	if got := metricValue(t, body, "sentinel_controller_demand_only_total"); got != wantDemandOnly {
		t.Errorf("sentinel_controller_demand_only_total = %g, want %g", got, wantDemandOnly)
	}
	rq := s.RequestStats()
	if rq.Replans != int64(online.Replans) || rq.DemandOnlyRuns != int64(wantDemandOnly) {
		t.Errorf("RequestStats snapshot %+v disagrees with responses (replans %d, demand-only %g)",
			rq, online.Replans, wantDemandOnly)
	}
}

// FuzzCellRequest drives arbitrary bodies and query strings through the
// /v1/plan, /v1/simulate and /v1/experiment decoding and validation —
// decodeRequest, then Validate — executing nothing. Every rejection must
// be an *experiment.RequestError naming a non-empty field, and every
// accepted plan or simulate request must carry a finite fast_pct and a
// batch within experiment.BatchLimit.
func FuzzCellRequest(f *testing.F) {
	for _, tc := range append(sizingCases, queryCases...) {
		_, query, _ := strings.Cut(tc.target, "?")
		f.Add(tc.body, query)
	}
	f.Add(`{"model":"resnet32","batch":32,"policy":"sentinel","fast_pct":20,"steps":2}`, "")
	f.Add("", "model=resnet32&batch=32&policy=sentinel&fast_bytes=1048576&online=true")
	f.Add(`{"id":"fig5","quick":true}`, "steps=3&format=csv")
	f.Fuzz(func(t *testing.T, body, query string) {
		// decode reports whether the endpoint accepted the request.
		decode := func(endpoint string, dst any, validate func() error) bool {
			r := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(body))
			r.URL.RawQuery = query
			err := decodeRequest(r, dst)
			if err == nil {
				err = validate()
			}
			var re *experiment.RequestError
			if err != nil && (!errors.As(err, &re) || re.Field == "") {
				t.Fatalf("%s: error %T %v is not a *experiment.RequestError naming a field (body %q, query %q)", endpoint, err, err, body, query)
			}
			return err == nil
		}
		check := func(endpoint string, batch int, fastPct float64) {
			if math.IsNaN(fastPct) || math.IsInf(fastPct, 0) || batch < 1 || batch > experiment.BatchLimit {
				t.Fatalf("%s: accepted batch %d, fast_pct %g (body %q, query %q)", endpoint, batch, fastPct, body, query)
			}
		}

		var cell simulateRequest
		if decode("simulate", &cell, func() error { return cell.Normalized().Validate() }) {
			check("simulate", cell.Batch, cell.FastPct)
		}
		var plan experiment.PlanRequest
		if decode("plan", &plan, func() error { return plan.Normalized().Validate() }) {
			check("plan", plan.Batch, 0)
		}
		var sweep sweepRequest
		decode("experiment", &sweep, func() error { return sweep.Validate() })
	})
}
