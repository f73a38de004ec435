package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// replyCases are the plan and simulate requests whose replies the server
// stores: a plan, a plain cell, a chaos cell and an online chaos cell.
// hits is what a repeat counts: one for the entry its reply is on, and
// one more for the peak-memory lookup that sizes a fast_pct cell, as a
// repeat counted before replies were stored.
var replyCases = []struct {
	name, target, body string
	hits               float64
}{
	{"plan", "/v1/plan", `{"model":"resnet32","batch":32,"platform":"cxl"}`, 1},
	{"simulate", "/v1/simulate", `{"model":"resnet32","batch":32,"policy":"sentinel","fast_pct":20,"steps":2}`, 2},
	{"chaos", "/v1/simulate", `{"model":"resnet32","batch":32,"policy":"sentinel","fast_pct":20,"steps":3,` +
		`"chaos":{"seed":7,"migrate_fail":0.2,"compute_jitter":0.1}}`, 2},
	{"online", "/v1/simulate", onlineChaosCell, 2},
}

// onlineChaosCell is an adaptive run under a capacity shrink, which
// replans (TestControllerMetrics).
const onlineChaosCell = `{"model":"resnet32","batch":128,"policy":"sentinel-gpu","platform":"gpu",` +
	`"fast_pct":20,"steps":12,"chaos":{"seed":42,"shrink_at_step":1,"shrink_frac":0.25},"online":true}`

// post sends one POST and fails the test unless it answers want.
func post(t *testing.T, h http.Handler, target, body string, want int) *httptest.ResponseRecorder {
	t.Helper()
	w := doJSON(t, h, http.MethodPost, target, body, nil)
	if w.Code != want {
		t.Fatalf("POST %s %s: %d, want %d (body %s)", target, body, w.Code, want, w.Body.String())
	}
	return w
}

// hits scrapes sentinel_plan_cache_hits_total.
func hits(t *testing.T, h http.Handler) float64 {
	t.Helper()
	return metricValue(t, doJSON(t, h, http.MethodGet, "/metrics", "", nil).Body.String(), "sentinel_plan_cache_hits_total")
}

// TestStoredRepliesMatchCold checks that a warm server answers a repeated
// request with the bytes and content type a cold server computes, and
// counts the cache hits of its case.
func TestStoredRepliesMatchCold(t *testing.T) {
	for _, tc := range replyCases {
		t.Run(tc.name, func(t *testing.T) {
			cold := post(t, New(Config{}).Handler(), tc.target, tc.body, http.StatusOK)
			h := New(Config{}).Handler()
			post(t, h, tc.target, tc.body, http.StatusOK)
			before := hits(t, h)
			warm := post(t, h, tc.target, tc.body, http.StatusOK)
			if warm.Body.String() != cold.Body.String() {
				t.Errorf("warm reply differs from cold:\n%s\nvs\n%s", warm.Body.String(), cold.Body.String())
			}
			if got, want := warm.Header().Get("Content-Type"), cold.Header().Get("Content-Type"); got != want {
				t.Errorf("warm Content-Type %q, cold %q", got, want)
			}
			if got := hits(t, h) - before; got != tc.hits {
				t.Errorf("repeated request counted %g cache hits, want %g", got, tc.hits)
			}
		})
	}
}

// TestRepeatedOnlineCellCountsReplans checks that a stored online reply
// still reports its run to the controller counters: two identical
// requests count the run's replans twice.
func TestRepeatedOnlineCellCountsReplans(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	var sum runSummary
	doJSON(t, h, http.MethodPost, "/v1/simulate", onlineChaosCell, &sum)
	if sum.Replans == 0 {
		t.Fatalf("online cell did not replan: %+v", sum)
	}
	post(t, h, "/v1/simulate", onlineChaosCell, http.StatusOK)
	body := doJSON(t, h, http.MethodGet, "/metrics", "", nil).Body.String()
	if got := metricValue(t, body, "sentinel_controller_replans_total"); got != float64(2*sum.Replans) {
		t.Errorf("sentinel_controller_replans_total = %g after two requests, want %d", got, 2*sum.Replans)
	}
	recovered := 0.0
	if sum.RecoveredSteps > 0 {
		recovered = 2
	}
	if got := metricValue(t, body, "sentinel_controller_recovered_runs_total"); got != recovered {
		t.Errorf("sentinel_controller_recovered_runs_total = %g, want %g", got, recovered)
	}
}

// TestFailedRequestsStoreNothing checks that a 400, an overloaded 429 and
// a cancelled 499 leave no reply behind: the 400 fails again when
// repeated, and the others' next identical request computes its 200 with
// a cold server's bytes.
func TestFailedRequestsStoreNothing(t *testing.T) {
	// No fast_pct: the cell's peak-memory lookup would count a hit of its
	// own on the request after a failure.
	const cell = `{"model":"resnet32","batch":32,"policy":"sentinel","steps":2}`
	cold := post(t, New(Config{}).Handler(), "/v1/simulate", cell, http.StatusOK).Body.String()

	t.Run("400", func(t *testing.T) {
		// Valid fields whose fast tier is under a page: the request
		// reaches the cell and fails there.
		const tiny = `{"model":"resnet32","batch":32,"policy":"sentinel","fast_bytes":1}`
		h := New(Config{}).Handler()
		first := post(t, h, "/v1/simulate", tiny, http.StatusBadRequest)
		again := post(t, h, "/v1/simulate", tiny, http.StatusBadRequest)
		if again.Body.String() != first.Body.String() {
			t.Errorf("repeated 400 differs:\n%s\nvs\n%s", again.Body.String(), first.Body.String())
		}
		if got := hits(t, h); got != 0 {
			t.Errorf("repeated 400 counted %g cache hits", got)
		}
	})

	t.Run("429", func(t *testing.T) {
		s := New(Config{MaxInFlight: 1, QueueDepth: 1})
		h := s.Handler()
		rel1, _ := s.adm.Admit()
		rel2, _ := s.adm.Admit()
		post(t, h, "/v1/simulate", cell, http.StatusTooManyRequests)
		rel1()
		rel2()
		if got := post(t, h, "/v1/simulate", cell, http.StatusOK).Body.String(); got != cold {
			t.Errorf("reply after a 429 differs from cold:\n%s\nvs\n%s", got, cold)
		}
		if got := hits(t, h); got != 0 {
			t.Errorf("first 200 after a 429 counted %g cache hits", got)
		}
	})

	t.Run("499", func(t *testing.T) {
		h := New(Config{}).Handler()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		req := httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(cell)).WithContext(ctx)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != 499 {
			t.Fatalf("cancelled request: %d, want 499 (body %s)", w.Code, w.Body.String())
		}
		if got := post(t, h, "/v1/simulate", cell, http.StatusOK).Body.String(); got != cold {
			t.Errorf("reply after a 499 differs from cold:\n%s\nvs\n%s", got, cold)
		}
		if got := hits(t, h); got != 0 {
			t.Errorf("first 200 after a 499 counted %g cache hits", got)
		}
	})
}

// TestTracedSimulateBypassesReplies checks that a trace_format request
// neither reads nor stores a reply: it exports its trace even when the
// plain request's reply is stored, and the plain request after it is
// still a miss.
func TestTracedSimulateBypassesReplies(t *testing.T) {
	const cell = `{"model":"resnet32","batch":32,"policy":"sentinel","steps":2`
	h := New(Config{}).Handler()
	traced := post(t, h, "/v1/simulate", cell+`,"trace_format":"text"}`, http.StatusOK).Body.String()
	plain := post(t, h, "/v1/simulate", cell+"}", http.StatusOK).Body.String()
	if got := hits(t, h); got != 0 {
		t.Errorf("plain request after a traced one counted %g cache hits, want 0", got)
	}
	again := post(t, h, "/v1/simulate", cell+`,"trace_format":"text"}`, http.StatusOK).Body.String()
	if again != traced || again == plain {
		t.Errorf("traced request after the stored plain reply did not re-export its trace:\n%.300s", again)
	}
	if got := hits(t, h); got != 0 {
		t.Errorf("traced request counted %g cache hits, want 0", got)
	}
}

// TestReplyKeys checks what a stored reply is kept for: two requests
// that differ only in a perturbing chaos seed get different bodies, a
// bare seed that injects nothing gets the clean cell's bytes, and the
// body and query forms of one request get the same bytes, the second
// from memory.
func TestReplyKeys(t *testing.T) {
	h := New(Config{}).Handler()
	const cell = `{"model":"resnet32","batch":32,"policy":"sentinel","fast_pct":20,"steps":3,"chaos":{"seed":%d,"migrate_fail":0.3,"compute_jitter":0.2}}`
	a := post(t, h, "/v1/simulate", strings.Replace(cell, "%d", "1", 1), http.StatusOK).Body.String()
	b := post(t, h, "/v1/simulate", strings.Replace(cell, "%d", "2", 1), http.StatusOK).Body.String()
	if a == b {
		t.Errorf("chaos seeds 1 and 2 got the same reply:\n%s", a)
	}
	const clean = `{"model":"resnet32","batch":32,"policy":"sentinel","fast_pct":20,"steps":3`
	c := post(t, h, "/v1/simulate", clean+"}", http.StatusOK).Body.String()
	if seed := post(t, h, "/v1/simulate", clean+`,"chaos":{"seed":5}}`, http.StatusOK).Body.String(); seed != c {
		t.Errorf("a bare chaos seed changed the clean reply:\n%s\nvs\n%s", seed, c)
	}

	h = New(Config{}).Handler()
	body := post(t, h, "/v1/simulate", `{"model":"resnet32","batch":32,"policy":"sentinel","fast_pct":20,"steps":2}`, http.StatusOK)
	query := doJSON(t, h, http.MethodGet, "/v1/simulate?model=resnet32&batch=32&policy=sentinel&fast_pct=20&steps=2", "", nil)
	if query.Code != http.StatusOK || query.Body.String() != body.Body.String() {
		t.Errorf("query form answered %d:\n%s\nbody form:\n%s", query.Code, query.Body.String(), body.Body.String())
	}
	// One hit for the reply's entry, one for the fast_pct peak lookup.
	if got := hits(t, h); got != 2 {
		t.Errorf("query form after the body form counted %g cache hits, want 2", got)
	}
}
