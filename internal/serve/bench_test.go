package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// BenchmarkServeHit measures the HTTP layer on its own: a plan and a
// simulate request that a warmed server answered before, through
// Handler().ServeHTTP with no socket. One iteration sends both.
func BenchmarkServeHit(b *testing.B) {
	h := New(Config{}).Handler()
	reqs := []struct{ target, body string }{
		{"/v1/plan", `{"model":"resnet32","batch":32}`},
		{"/v1/simulate", `{"model":"resnet32","batch":32,"policy":"sentinel","fast_pct":20,"steps":3}`},
	}
	send := func() {
		for _, q := range reqs {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, q.target, strings.NewReader(q.body)))
			if w.Code != http.StatusOK {
				b.Fatalf("POST %s: %d %s", q.target, w.Code, w.Body.String())
			}
		}
	}
	send() // warm: compute and keep both replies
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
}
