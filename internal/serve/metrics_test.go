package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"sentinel/internal/dist"
)

// scrape returns the /metrics body's lines.
func scrape(t *testing.T, h http.Handler) []string {
	t.Helper()
	w := doJSON(t, h, http.MethodGet, "/metrics", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("GET /metrics: %d %s", w.Code, w.Body.String())
	}
	return strings.Split(strings.TrimSuffix(w.Body.String(), "\n"), "\n")
}

// sampleLines drops the exposition's # comment lines, masking the values of
// the two host-time latency samples.
func sampleLines(lines []string) []string {
	var out []string
	for _, l := range lines {
		if strings.HasPrefix(l, "#") {
			continue
		}
		if name, _, _ := strings.Cut(l, " "); strings.HasPrefix(name, "sentinel_request_latency_seconds_") {
			l = name + " <host-time>"
		}
		out = append(out, l)
	}
	return out
}

// distCounters are the dist families typed counter without a _total
// suffix; every other family is a gauge unless its name ends in _total.
var distCounters = map[string]bool{
	"sentinel_dist_leases_granted":    true,
	"sentinel_dist_leases_expired":    true,
	"sentinel_dist_leases_reassigned": true,
	"sentinel_dist_worker_deaths":     true,
}

// sampleLine is the text format's sample grammar for this server's
// families: a metric name, at most one worker label whose value escapes
// only backslash, quote and newline, and a value.
var sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{worker="(?:[^"\\\n]|\\[\\"n])*"\})? \S+$`)

// TestMetricsExposition pins the whole /metrics exposition of a fresh
// server after one plan, one simulate and one shard grant: every sample
// line in order, then one # HELP and one # TYPE per family, directly
// before its samples. Then it grants leases to awkward tenants and pins
// the labelled family: sorted by worker, each value escaped.
func TestMetricsExposition(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir()) // lease directories die with the test
	s := New(Config{Quick: true, MaxShards: 8, ShardTTL: time.Minute})
	s.shardStart = make(chan struct{}) // the granted shard runs nothing
	h := s.Handler()
	for _, req := range []struct{ target, body string }{
		{"/v1/plan", `{"model":"resnet32","batch":32}`},
		{"/v1/simulate", `{"model":"resnet32","batch":32,"policy":"sentinel","steps":2}`},
	} {
		if w := doJSON(t, h, http.MethodPost, req.target, req.body, nil); w.Code != http.StatusOK {
			t.Fatalf("POST %s: %d %s", req.target, w.Code, w.Body.String())
		}
	}
	st := startShard(t, h, fig7Shard0)
	leases := []string{st.Lease}
	defer func() {
		for _, id := range leases {
			doJSON(t, h, http.MethodDelete, "/v1/shard?lease="+id, "", nil)
		}
	}()
	lines := scrape(t, h)

	t.Run("samples", func(t *testing.T) {
		want := []string{
			"sentinel_ready 1",
			"sentinel_requests_accepted_total 2",
			"sentinel_requests_completed_total 2",
			"sentinel_requests_failed_total 0",
			"sentinel_requests_rejected_total 0",
			"sentinel_requests_in_flight 0",
			"sentinel_request_latency_seconds_total <host-time>",
			"sentinel_request_latency_seconds_max <host-time>",
			"sentinel_admission_admitted 0",
			"sentinel_admission_running 0",
			"sentinel_admission_tenants 0",
			"sentinel_plan_cache_entries 2",
			"sentinel_plan_cache_hits_total 0",
			"sentinel_plan_cache_misses_total 2",
			"sentinel_plan_cache_waits_total 0",
			"sentinel_plan_cache_seeded_total 0",
			"sentinel_plan_cache_resume_hits_total 0",
			"sentinel_sweep_cells_done_total 0",
			"sentinel_sweep_cells_scheduled_total 0",
			"sentinel_controller_replans_total 0",
			"sentinel_controller_recovered_runs_total 0",
			"sentinel_controller_demand_only_total 0",
			"sentinel_dist_leases_granted 1",
			"sentinel_dist_leases_expired 0",
			"sentinel_dist_leases_reassigned 0",
			"sentinel_dist_worker_deaths 0",
			`sentinel_dist_worker_in_flight{worker="anonymous"} 1`,
		}
		if got := sampleLines(lines); strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("sample lines:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	})

	t.Run("families", func(t *testing.T) {
		checkFamilies(t, lines)
	})

	t.Run("workers", func(t *testing.T) {
		// A tab and a 0xff byte pass Go's header parsing; a newline
		// cannot arrive in a header, so it enters the counters directly.
		for _, tenant := range []string{"beta", "t\xffx", `q"\`, "a\tb"} {
			req := httptest.NewRequest(http.MethodPost, "/v1/shard", strings.NewReader(fig7Shard0))
			req.Header.Set(TenantHeader, tenant)
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			var st dist.ShardStatus
			if err := json.Unmarshal(w.Body.Bytes(), &st); w.Code != http.StatusOK || err != nil {
				t.Fatalf("grant for tenant %q: %d %s", tenant, w.Code, w.Body.String())
			}
			leases = append(leases, st.Lease)
		}
		s.dist.LeaseGranted("x\ny")
		defer s.dist.LeaseDone("x\ny")
		lines := scrape(t, h)
		checkFamilies(t, lines)
		var got []string
		for _, l := range lines {
			if strings.HasPrefix(l, "sentinel_dist_") {
				got = append(got, l)
			}
		}
		want := []string{
			"sentinel_dist_leases_granted 6",
			"sentinel_dist_leases_expired 0",
			"sentinel_dist_leases_reassigned 0",
			"sentinel_dist_worker_deaths 0",
			"sentinel_dist_worker_in_flight{worker=\"a\tb\"} 1",
			`sentinel_dist_worker_in_flight{worker="anonymous"} 1`,
			`sentinel_dist_worker_in_flight{worker="beta"} 1`,
			`sentinel_dist_worker_in_flight{worker="q\"\\"} 1`,
			"sentinel_dist_worker_in_flight{worker=\"t\uFFFDx\"} 1",
			`sentinel_dist_worker_in_flight{worker="x\ny"} 1`,
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("dist lines:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	})
}

// checkFamilies asserts the exposition's structure: each family opens
// with exactly one # HELP and one # TYPE line, typed counter for _total
// names and distCounters and gauge otherwise, and is followed only by
// its own samples, each valid UTF-8 in the text format's grammar.
func checkFamilies(t *testing.T, lines []string) {
	t.Helper()
	seen := map[string]bool{}
	family := ""
	for i := 0; i < len(lines); i++ {
		l := lines[i]
		if name, ok := strings.CutPrefix(l, "# HELP "); ok {
			name, _, _ = strings.Cut(name, " ")
			if seen[name] {
				t.Errorf("family %s opened twice", name)
			}
			seen[name], family = true, name
			typ := "gauge"
			if strings.HasSuffix(name, "_total") || distCounters[name] {
				typ = "counter"
			}
			if i+1 >= len(lines) || lines[i+1] != "# TYPE "+name+" "+typ {
				t.Errorf("# HELP %s not followed by %q", name, "# TYPE "+name+" "+typ)
			}
			i++
			continue
		}
		m := sampleLine.FindStringSubmatch(l)
		if m == nil || !utf8.ValidString(l) {
			t.Errorf("line %q is not a valid sample line", l)
			continue
		}
		if m[1] != family {
			t.Errorf("sample %q outside its family (current family %q)", l, family)
		}
	}
}
