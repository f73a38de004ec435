package serve

import (
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// handleMetrics renders the counters in the Prometheus text format
// 0.0.4 from one ordered table, never map iteration, so scrapes and
// greps are stable: per family a # HELP and a # TYPE line, then its
// sample.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	rq, cs := s.reqs.Snapshot(), s.cache.Stats()
	done, total, _ := s.progress.Snapshot()
	admitted, running := s.adm.Queued()
	ready := 1
	if s.draining.Load() {
		ready = 0
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	for _, f := range []promFamily{
		{"sentinel_ready", "gauge", "1 while accepting work, 0 once draining.", num(ready)},
		{"sentinel_requests_accepted_total", "counter", "Requests admitted past admission control.", num(rq.Accepted)},
		{"sentinel_requests_completed_total", "counter", "Admitted requests that succeeded.", num(rq.Completed)},
		{"sentinel_requests_failed_total", "counter", "Admitted requests that failed.", num(rq.Failed)},
		{"sentinel_requests_rejected_total", "counter", "Requests refused with 429 or a draining 503.", num(rq.Rejected)},
		{"sentinel_requests_in_flight", "gauge", "Admitted requests not yet finished.", num(rq.InFlight)},
		{"sentinel_request_latency_seconds_total", "counter", "Host wall-clock latency summed over finished requests.", secs(rq.LatencyTotal)},
		{"sentinel_request_latency_seconds_max", "gauge", "Host wall-clock latency of the slowest finished request.", secs(rq.LatencyMax)},
		{"sentinel_admission_admitted", "gauge", "Admission tokens held, queued or running.", num(admitted)},
		{"sentinel_admission_running", "gauge", "Requests holding an execution slot.", num(running)},
		{"sentinel_plan_cache_entries", "gauge", "Entries in the shared plan cache.", num(s.cache.Len())},
		{"sentinel_plan_cache_hits_total", "counter", "Plan-cache lookups served by a completed entry.", num(cs.Hits)},
		{"sentinel_plan_cache_misses_total", "counter", "Plan-cache lookups that computed a fresh entry.", num(cs.Misses)},
		{"sentinel_plan_cache_waits_total", "counter", "Plan-cache lookups that waited on an in-flight computation.", num(cs.Waits)},
		{"sentinel_sweep_cells_done_total", "counter", "Sweep cells finished across served sweeps.", num(done)},
		{"sentinel_sweep_cells_scheduled_total", "counter", "Sweep cells scheduled across served sweeps.", num(total)},
		{"sentinel_controller_replans_total", "counter", "Adaptive-controller plan rebuilds across served runs.", num(rq.Replans)},
		{"sentinel_controller_recovered_runs_total", "counter", "Served runs that recovered on a replacement plan.", num(rq.RecoveredRuns)},
		{"sentinel_controller_demand_only_total", "counter", "Served runs that ended degraded to demand paging.", num(rq.DemandOnlyRuns)},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %s\n", f.name, f.help, f.name, f.typ, f.name, f.value)
	}
}

// promFamily is one row of the /metrics table: name, type (counter or
// gauge), help clause and its one unlabelled sample's formatted value.
type promFamily struct{ name, typ, help, value string }

// num formats an integer sample like %d; secs formats a duration sample
// in seconds like %g.
func num[T int | int64](v T) string { return strconv.FormatInt(int64(v), 10) }
func secs(d time.Duration) string   { return fmt.Sprint(d.Seconds()) }
