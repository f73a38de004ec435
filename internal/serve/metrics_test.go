package serve

import (
	"fmt"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"unicode/utf8"
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

// sampleLine is the text format's sample grammar for this server's
// families: an unlabelled metric name and a value.
var sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*) \S+$`)

// TestMetricsExposition pins the whole /metrics exposition of a fresh
// server after one plan and one simulate: every sample line in order,
// then one # HELP and one # TYPE per family, directly before its sample.
func TestMetricsExposition(t *testing.T) {
	h := New(Config{Quick: true}).Handler()
	const simulate = `{"model":"resnet32","batch":32,"policy":"sentinel","steps":2}`
	for _, req := range []struct{ target, body string }{
		{"/v1/plan", `{"model":"resnet32","batch":32}`},
		{"/v1/simulate", simulate},
	} {
		if w := doJSON(t, h, http.MethodPost, req.target, req.body, nil); w.Code != http.StatusOK {
			t.Fatalf("POST %s: %d %s", req.target, w.Code, w.Body.String())
		}
	}
	lines := scrape(t, h)

	// samples lists the sample lines after n requests, hits of them
	// answered from memory.
	samples := func(n, hits int) []string {
		return []string{
			"sentinel_ready 1",
			fmt.Sprintf("sentinel_requests_accepted_total %d", n),
			fmt.Sprintf("sentinel_requests_completed_total %d", n),
			"sentinel_requests_failed_total 0",
			"sentinel_requests_rejected_total 0",
			"sentinel_requests_in_flight 0",
			"sentinel_request_latency_seconds_total <host-time>",
			"sentinel_request_latency_seconds_max <host-time>",
			"sentinel_admission_admitted 0",
			"sentinel_admission_running 0",
			"sentinel_plan_cache_entries 2",
			fmt.Sprintf("sentinel_plan_cache_hits_total %d", hits),
			"sentinel_plan_cache_misses_total 2",
			"sentinel_plan_cache_waits_total 0",
			"sentinel_sweep_cells_done_total 0",
			"sentinel_sweep_cells_scheduled_total 0",
			"sentinel_controller_replans_total 0",
			"sentinel_controller_recovered_runs_total 0",
			"sentinel_controller_demand_only_total 0",
		}
	}
	checkSamples := func(t *testing.T, lines, want []string) {
		t.Helper()
		if got := sampleLines(lines); strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("sample lines:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}

	t.Run("samples", func(t *testing.T) {
		checkSamples(t, lines, samples(2, 0))
	})

	t.Run("families", func(t *testing.T) {
		checkFamilies(t, lines)
	})

	// A repeated request is answered from memory: one more hit, and no
	// new entry or miss.
	t.Run("repeated", func(t *testing.T) {
		if w := doJSON(t, h, http.MethodPost, "/v1/simulate", simulate, nil); w.Code != http.StatusOK {
			t.Fatalf("POST /v1/simulate again: %d %s", w.Code, w.Body.String())
		}
		checkSamples(t, scrape(t, h), samples(3, 1))
	})
}

// checkFamilies asserts the exposition's structure: each family opens
// with exactly one # HELP and one # TYPE line, typed counter for _total
// names and gauge otherwise, and is followed only by its own samples,
// each valid UTF-8 in the text format's grammar.
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
			if strings.HasSuffix(name, "_total") {
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
