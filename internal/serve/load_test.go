package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestServeLoad fires a large burst of concurrent plan/simulate
// requests at one handler and asserts the daemon's load-shedding
// contract: every request is answered (200 or 429, nothing hangs, no
// panic), accounting balances, and heap growth stays bounded — the
// admission queue, not the request flood, dictates memory.
//
// The default burst is sized for a quick local run; CI raises it to
// thousands via SENTINEL_SERVE_LOAD.
func TestServeLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("load test")
	}
	n := 300
	if env := os.Getenv("SENTINEL_SERVE_LOAD"); env != "" {
		v, err := strconv.Atoi(env)
		if err != nil || v <= 0 {
			t.Fatalf("bad SENTINEL_SERVE_LOAD=%q: %v", env, err)
		}
		n = v
	}
	s := New(Config{MaxInFlight: 4, QueueDepth: 32})
	h := s.Handler()

	// Only a handful of distinct request shapes: past the first few
	// computations everything is a cache hit or singleflight wait, so
	// the burst measures the serving layer, not the simulator.
	shapes := []string{
		`{"model":"resnet32","batch":32,"policy":"sentinel","fast_pct":20,"steps":2}`,
		`{"model":"resnet32","batch":32,"policy":"first-touch","fast_pct":20,"steps":2}`,
		`{"model":"resnet32","batch":64,"policy":"sentinel","fast_pct":20,"steps":2}`,
	}

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	var ok, shed, other atomic.Int64
	var firstOther atomic.Value
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			path := "/v1/simulate"
			if i%7 == 0 {
				path = "/v1/plan"
			}
			body := shapes[i%len(shapes)]
			if path == "/v1/plan" {
				body = `{"model":"resnet32","batch":32}`
			}
			req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			switch w.Code {
			case http.StatusOK:
				ok.Add(1)
			case http.StatusTooManyRequests:
				shed.Add(1)
			default:
				other.Add(1)
				firstOther.CompareAndSwap(nil, fmt.Sprintf("HTTP %d: %.300s", w.Code, w.Body.String()))
			}
		}(i)
	}
	wg.Wait()

	if other.Load() != 0 {
		t.Fatalf("%d requests failed with unexpected status; first: %v", other.Load(), firstOther.Load())
	}
	if ok.Load() == 0 {
		t.Fatal("no request succeeded — the burst was entirely shed")
	}
	if ok.Load()+shed.Load() != int64(n) {
		t.Fatalf("accounting: %d ok + %d shed != %d sent", ok.Load(), shed.Load(), n)
	}
	rq := s.RequestStats()
	if rq.InFlight != 0 {
		t.Errorf("in-flight gauge stuck at %d after the burst drained", rq.InFlight)
	}
	if rq.Completed+rq.Failed != ok.Load() || rq.Rejected != shed.Load() {
		t.Errorf("server accounting %+v disagrees with client tally (%d ok, %d shed)", rq, ok.Load(), shed.Load())
	}
	if adm, run := s.adm.Queued(); adm != 0 || run != 0 {
		t.Errorf("admission tokens leaked: %d admitted, %d running", adm, run)
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	// Bounded memory: live heap after the burst must not scale with n.
	// The cache retains a handful of plans/runs (~MB); a daemon that
	// buffered the flood would blow far past this.
	const budget = 256 << 20
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("load: %d requests (%d ok, %d shed), heap %+d bytes, %s",
		n, ok.Load(), shed.Load(), grew, rq)
	if grew > budget {
		t.Errorf("live heap grew %d bytes across the burst (budget %d)", grew, budget)
	}
}
