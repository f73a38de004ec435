package serve

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sentinel/internal/dist"
	"sentinel/internal/experiment"
	"sentinel/internal/metrics"
)

// shardServer builds a server tuned for shard tests: quick sweeps, a
// short TTL so expiry is testable.
func shardServer(t *testing.T, ttl time.Duration) (*Server, http.Handler) {
	t.Helper()
	s := New(Config{Quick: true, MaxShards: 2, ShardTTL: ttl})
	return s, s.Handler()
}

// startShard grants a lease for one shard of a fig7 quick sweep and
// returns its id.
func startShard(t *testing.T, h http.Handler, body string) dist.ShardStatus {
	t.Helper()
	var st dist.ShardStatus
	w := doJSON(t, h, http.MethodPost, "/v1/shard", body, &st)
	if w.Code != http.StatusOK {
		t.Fatalf("POST /v1/shard: %d %s", w.Code, w.Body.String())
	}
	if st.Lease == "" || st.State != dist.ShardRunning {
		t.Fatalf("grant response %+v", st)
	}
	return st
}

// waitShard polls the status endpoint until the shard leaves the
// running state, accumulating journal bytes incrementally exactly like
// dist.RemoteWorker does.
func waitShard(t *testing.T, h http.Handler, lease string) (final dist.ShardStatus, journal []byte) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	offset := int64(0)
	for {
		var st dist.ShardStatus
		target := fmt.Sprintf("/v1/shard/status?lease=%s&offset=%d", lease, offset)
		w := doJSON(t, h, http.MethodGet, target, "", &st)
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", target, w.Code, w.Body.String())
		}
		journal = append(journal, st.Journal...)
		offset = st.Offset
		if st.State != dist.ShardRunning {
			return st, journal
		}
		if time.Now().After(deadline) {
			t.Fatal("shard did not finish in 30s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

const fig7Shard0 = `{"exps":["fig7"],"shard":0,"shards":2,"quick":true,"steps":2}`

// testLease builds a running lease for registry-level tests. Its run
// waits on a gate that never opens, so only a cancel (release, expiry,
// drain) ends it.
func testLease(t *testing.T) *shardLease {
	t.Helper()
	lease, err := dist.StartLease(dist.Task{Exps: []string{"fig7"}, Shards: 1, Quick: true}, 1, make(chan struct{}))
	if err != nil {
		t.Fatal(err)
	}
	return &shardLease{Lease: lease, tenant: "t", ttl: time.Minute}
}

// TestGrantArmsTimerBeforePublish pins the goroleak/race fix: the TTL
// timer is created inside grant, before the lease is findable, so a
// status poll racing the grant can never hit a nil timer in renew.
func TestGrantArmsTimerBeforePublish(t *testing.T) {
	r := newShardRegistry(2, &metrics.DistStats{})
	l := testLease(t)
	id, err := r.grant(l, func(string) {})
	if err != nil {
		t.Fatal(err)
	}
	if l.timer == nil {
		t.Fatal("grant returned with a nil TTL timer; a racing renew would panic")
	}
	got, ok := r.get(id)
	if !ok || got != l {
		t.Fatalf("lease %q not findable after grant", id)
	}
	l.renew() // must not panic
	if _, ok := r.drop(id, "lease released"); !ok {
		t.Fatalf("drop(%q) failed", id)
	}
}

func TestShardLifecycle(t *testing.T) {
	s, h := shardServer(t, time.Minute)
	st := startShard(t, h, fig7Shard0)

	final, journal := waitShard(t, h, st.Lease)
	if final.State != dist.ShardCompleted || final.Err != "" {
		t.Fatalf("final status %+v", final)
	}
	if final.Cells == 0 {
		t.Fatalf("completed shard journaled no cells: %+v", final)
	}
	// The accumulated incremental reads must form a valid journal whose
	// cell count matches what the worker reported.
	cache := experiment.NewCache()
	restored, skipped, err := experiment.MergeJournal(cache, journal)
	if err != nil || skipped != 0 {
		t.Fatalf("merge of streamed journal: restored=%d skipped=%d err=%v", restored, skipped, err)
	}
	if restored != final.Cells {
		t.Fatalf("streamed %d cell(s), worker reported %d", restored, final.Cells)
	}

	// Release the lease; a second status poll must 404.
	var rel dist.ShardStatus
	if w := doJSON(t, h, http.MethodDelete, "/v1/shard?lease="+st.Lease, "", &rel); w.Code != http.StatusOK {
		t.Fatalf("DELETE: %d %s", w.Code, w.Body.String())
	}
	if rel.State != dist.ShardCompleted {
		t.Fatalf("release response %+v", rel)
	}
	if w := doJSON(t, h, http.MethodGet, "/v1/shard/status?lease="+st.Lease, "", nil); w.Code != http.StatusNotFound {
		t.Fatalf("status after release: %d, want 404", w.Code)
	}
	ds := s.DistStats()
	if ds.Granted != 1 || ds.Expired != 0 || len(ds.InFlight) != 0 {
		t.Fatalf("dist stats %+v, want 1 grant, gauge drained", ds)
	}
}

func TestShardSeedResume(t *testing.T) {
	_, h := shardServer(t, time.Minute)
	// First run: complete shard 0 and take its journal.
	st := startShard(t, h, fig7Shard0)
	final, journal := waitShard(t, h, st.Lease)
	doJSON(t, h, http.MethodDelete, "/v1/shard?lease="+st.Lease, "", nil)

	// Second run seeded with the full journal: every cell comes back
	// via replay, nothing recomputes, and the status reports the seeded
	// cells immediately.
	body := fmt.Sprintf(`{"exps":["fig7"],"shard":0,"shards":2,"quick":true,"steps":2,"seed":%q}`,
		base64.StdEncoding.EncodeToString(journal))
	st2 := startShard(t, h, body)
	if st2.Cells != final.Cells {
		t.Fatalf("seeded grant reports %d cell(s), want all %d replayed", st2.Cells, final.Cells)
	}
	final2, _ := waitShard(t, h, st2.Lease)
	if final2.State != dist.ShardCompleted || final2.Cells != final.Cells {
		t.Fatalf("seeded rerun %+v, want %d cell(s)", final2, final.Cells)
	}
}

// shardValidationCases are POST /v1/shard bodies the handler must
// refuse with a typed 400, and the start of each refusal's message.
var shardValidationCases = []struct {
	name, body, msg string
}{
	{"no shards", `{"exps":["fig7"]}`, "shards must be >= 1, got 0"},
	{"shard out of range", `{"exps":["fig7"],"shard":3,"shards":2}`, "shard must be in [0, 2), got 3"},
	{"negative shard", `{"exps":["fig7"],"shard":-1,"shards":2}`, "shard must be in [0, 2), got -1"},
	{"no exps", `{"shards":2}`, "exps is required"},
	{"unknown exp", `{"exps":["fig99"],"shards":2}`, `unknown experiment "fig99" (known: [`},
	{"garbage seed", `{"exps":["fig7"],"shards":1,"seed":"` +
		base64.StdEncoding.EncodeToString([]byte("not a journal")) + `"}`, "seed is not a journal image"},
}

func TestShardValidation(t *testing.T) {
	_, h := shardServer(t, time.Minute)
	for _, tc := range shardValidationCases {
		w := doJSON(t, h, http.MethodPost, "/v1/shard", tc.body, nil)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", tc.name, w.Code, w.Body.String())
		}
		var b errorBody
		if err := json.Unmarshal(w.Body.Bytes(), &b); err != nil || b.Error.Code != "invalid_request" || !strings.HasPrefix(b.Error.Message, tc.msg) {
			t.Errorf("%s: error %+v (%v), want invalid_request %q", tc.name, b.Error, err, tc.msg)
		}
	}
	if w := doJSON(t, h, http.MethodGet, "/v1/shard/status", "", nil); w.Code != http.StatusBadRequest {
		t.Errorf("status without lease: %d, want 400", w.Code)
	}
	if w := doJSON(t, h, http.MethodGet, "/v1/shard/status?lease=lease-99", "", nil); w.Code != http.StatusNotFound {
		t.Errorf("status of unknown lease: %d, want 404", w.Code)
	}
	if w := doJSON(t, h, http.MethodDelete, "/v1/shard?lease=lease-99", "", nil); w.Code != http.StatusNotFound {
		t.Errorf("release of unknown lease: %d, want 404", w.Code)
	}
	if w := doJSON(t, h, http.MethodPut, "/v1/shard", "", nil); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("PUT /v1/shard: %d, want 405", w.Code)
	}
}

// FuzzShardRequest drives arbitrary POST /v1/shard bodies through the
// real decode and validation. Each must end in a typed 400 or a granted
// lease, which is released straight away; the start gate never opens,
// so a granted lease runs no experiment.
func FuzzShardRequest(f *testing.F) {
	for _, tc := range shardValidationCases {
		f.Add(tc.body)
	}
	f.Add(fig7Shard0)
	s := New(Config{Quick: true, MaxShards: 2, ShardTTL: time.Minute})
	s.shardStart = make(chan struct{})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body string) {
		w := doJSON(t, h, http.MethodPost, "/v1/shard", body, nil)
		switch w.Code {
		case http.StatusBadRequest:
			if code, _ := errCode(t, w); code != "invalid_request" {
				t.Fatalf("400 with code %q for body %q", code, body)
			}
		case http.StatusOK:
			var st dist.ShardStatus
			if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil || st.Lease == "" || st.State != dist.ShardRunning {
				t.Fatalf("grant response %q (%v) for body %q", w.Body.String(), err, body)
			}
			if rw := doJSON(t, h, http.MethodDelete, "/v1/shard?lease="+st.Lease, "", nil); rw.Code != http.StatusOK {
				t.Fatalf("release of %s: %d %s", st.Lease, rw.Code, rw.Body.String())
			}
		default:
			t.Fatalf("POST /v1/shard: %d %s for body %q", w.Code, w.Body.String(), body)
		}
	})
}

func TestShardSaturation(t *testing.T) {
	s, h := shardServer(t, time.Minute)
	// Hold the sweeps at their start: a quick shard that finished before
	// the third POST would free its slot and turn the 429 into a 200.
	s.shardStart = make(chan struct{})
	var leases []string
	for i := 0; i < 2; i++ {
		st := startShard(t, h, fmt.Sprintf(`{"exps":["fig7"],"shard":%d,"shards":8,"quick":true,"steps":2}`, i))
		leases = append(leases, st.Lease)
	}
	w := doJSON(t, h, http.MethodPost, "/v1/shard",
		`{"exps":["fig7"],"shard":2,"shards":8,"quick":true,"steps":2}`, nil)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("third grant: %d %s, want 429", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	close(s.shardStart)
	// Finishing a shard frees its slot even before release: the cap
	// counts running sweeps, not held leases.
	waitShard(t, h, leases[0])
	st := startShard(t, h, `{"exps":["fig7"],"shard":2,"shards":8,"quick":true,"steps":2}`)
	waitShard(t, h, st.Lease)
	for _, l := range append(leases, st.Lease) {
		doJSON(t, h, http.MethodDelete, "/v1/shard?lease="+l, "", nil)
	}
}

func TestShardLeaseExpiry(t *testing.T) {
	s, h := shardServer(t, 50*time.Millisecond)
	// Hold the sweep at its start (the gate is never opened), so the
	// lease is still running when its TTL lapses; a quick shard that
	// finished first would be counted as done, not expired.
	s.shardStart = make(chan struct{})
	st := startShard(t, h, fig7Shard0)
	// Never poll: the TTL lapses and the lease is reclaimed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		w := doJSON(t, h, http.MethodGet, "/v1/shard/status?lease="+st.Lease, "", nil)
		if w.Code == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("lease never expired")
		}
		// A poll renews the lease, so back off past the TTL each try.
		time.Sleep(60 * time.Millisecond)
	}
	ds := s.DistStats()
	if ds.Granted != 1 || ds.Expired != 1 {
		t.Fatalf("dist stats %+v", ds)
	}
	if len(ds.InFlight) != 0 {
		t.Fatalf("in-flight gauge not drained after expiry: %+v", ds.InFlight)
	}
}

func TestShardDrainFailsLeases(t *testing.T) {
	s, h := shardServer(t, time.Minute)
	st := startShard(t, h, fig7Shard0)
	s.BeginDrain()
	// The lease stays queryable (final salvage) but reports failure.
	var got dist.ShardStatus
	w := doJSON(t, h, http.MethodGet, "/v1/shard/status?lease="+st.Lease, "", &got)
	if w.Code != http.StatusOK {
		t.Fatalf("status during drain: %d %s", w.Code, w.Body.String())
	}
	if got.State == dist.ShardRunning && got.Err == "" {
		// The sweep may have completed before the drain landed; only a
		// still-running state must carry the drain verdict.
		t.Fatalf("drained lease still running cleanly: %+v", got)
	}
	// New grants are refused while draining.
	if w := doJSON(t, h, http.MethodPost, "/v1/shard", fig7Shard0, nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("grant while draining: %d, want 503", w.Code)
	}
}

func TestMetricsIncludeDistCounters(t *testing.T) {
	s, h := shardServer(t, time.Minute)
	st := startShard(t, h, fig7Shard0)
	w := doJSON(t, h, http.MethodGet, "/metrics", "", nil)
	body := w.Body.String()
	for _, want := range []string{
		"sentinel_dist_leases_granted 1",
		"sentinel_dist_leases_expired 0",
		"sentinel_dist_leases_reassigned 0",
		"sentinel_dist_worker_deaths 0",
		`sentinel_dist_worker_in_flight{worker="anonymous"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n---\n%s", want, body)
		}
	}
	waitShard(t, h, st.Lease)
	doJSON(t, h, http.MethodDelete, "/v1/shard?lease="+st.Lease, "", nil)
	_ = s
}

// TestRemoteWorkerAgainstServe drives dist.RemoteWorker — the
// coordinator's client — against a real serve instance end to end:
// lease, incremental salvage polls, completion, release.
func TestRemoteWorkerAgainstServe(t *testing.T) {
	_, h := shardServer(t, time.Minute)
	srv := httptest.NewServer(h)
	defer srv.Close()

	ctx := context.Background()
	w := &dist.RemoteWorker{BaseURL: srv.URL, Client: &dist.Client{}, TTL: time.Minute}
	at, err := w.Start(ctx, dist.Task{
		Shard: 0, Shards: 2, Exps: []string{"fig7"}, Quick: true, Steps: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer at.Kill()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := at.Poll(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Done {
			if st.Err != "" {
				t.Fatalf("remote shard failed: %s", st.Err)
			}
			cache := experiment.NewCache()
			restored, _, err := experiment.MergeJournal(cache, st.Journal)
			if err != nil || restored != st.Cells || restored == 0 {
				t.Fatalf("salvaged journal: %d cell(s) (reported %d), err %v", restored, st.Cells, err)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("remote shard did not finish in 30s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
