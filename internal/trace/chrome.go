package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Track (thread) ids within each run's process. Distinct tracks keep
// compute and the two migration directions visually separate, which is
// what makes overlap (or its absence) readable in Perfetto.
const (
	tidCompute    = 1 // step/layer spans, stalls
	tidMigrateIn  = 2 // slow->fast migration spans, demand instants
	tidMigrateOut = 3 // fast->slow migration spans
	tidAllocator  = 4 // alloc/free/place/arena events, oom retries
)

var tidNames = map[int]string{
	tidCompute:    "compute",
	tidMigrateIn:  "migrate-in",
	tidMigrateOut: "migrate-out",
	tidAllocator:  "allocator",
}

// Sorted returns the events in timeline order: grouped by run, then by
// start time, with wider spans first on ties so enclosing spans precede
// their contents. The input is not modified.
func Sorted(events []Event) []Event {
	out := make([]Event, len(events))
	copy(out, events)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Run != out[j].Run {
			return out[i].Run < out[j].Run
		}
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Dur > out[j].Dur
	})
	return out
}

// micros converts virtual nanoseconds to the trace-event format's
// microsecond timestamps.
func micros[T ~int64](v T) float64 { return float64(v) / 1e3 }

// WriteChrome writes the events as a Chrome trace-event JSON document
// (the "JSON Object Format": {"traceEvents": [...]}), loadable in
// Perfetto and chrome://tracing.
//
// Mapping: each run becomes one process (pid), named by its run label.
// Step, layer, and stall events become complete ("X") slices on the
// "compute" track; migration batches become slices on the "migrate-in"
// and "migrate-out" tracks; allocs, frees, demand migrations, placement
// decisions, and arena events become instants; access and fault events
// become cumulative counter tracks ("traffic-fast", "traffic-slow",
// "faults"), and migration spans additionally drive per-direction
// "inflight-in"/"inflight-out" counters — the bandwidth-occupancy view of
// each channel. Stall slices carry the waited-on tensor in args.
func WriteChrome(w io.Writer, events []Event) error {
	evs := Sorted(events)

	// One process per run label, in sorted first-appearance order.
	pids := map[string]int{}
	var runs []string
	for _, e := range evs {
		if _, ok := pids[e.Run]; !ok {
			pids[e.Run] = len(pids) + 1
			runs = append(runs, e.Run)
		}
	}

	var out []map[string]any
	add := func(m map[string]any) { out = append(out, m) }

	for _, run := range runs {
		pid := pids[run]
		name := run
		if name == "" {
			name = "run"
		}
		add(map[string]any{"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
			"args": map[string]any{"name": name}})
		for _, tid := range []int{tidCompute, tidMigrateIn, tidMigrateOut, tidAllocator} {
			add(map[string]any{"ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
				"args": map[string]any{"name": tidNames[tid]}})
			add(map[string]any{"ph": "M", "name": "thread_sort_index", "pid": pid, "tid": tid,
				"args": map[string]any{"sort_index": tid}})
		}
	}

	slice := func(e Event, tid int, name string, args map[string]any) {
		add(map[string]any{"ph": "X", "cat": string(e.Kind), "name": name,
			"pid": pids[e.Run], "tid": tid, "ts": micros(e.At), "dur": micros(e.Dur),
			"args": args})
	}
	instant := func(e Event, tid int, name string, args map[string]any) {
		add(map[string]any{"ph": "i", "s": "t", "cat": string(e.Kind), "name": name,
			"pid": pids[e.Run], "tid": tid, "ts": micros(e.At), "args": args})
	}

	// Counter state, accumulated in timeline order per run.
	type counterKey struct {
		pid  int
		name string
	}
	totals := map[counterKey]int64{}
	counter := func(pid int, name string, ts float64, delta int64) {
		k := counterKey{pid, name}
		totals[k] += delta
		add(map[string]any{"ph": "C", "name": name, "pid": pid, "tid": 0, "ts": ts,
			"args": map[string]any{"value": totals[k]}})
	}

	// In-flight (occupancy) deltas are generated at span start and end,
	// then replayed in time order after the main pass.
	type delta struct {
		pid   int
		name  string
		ts    float64
		bytes int64
	}
	var inflight []delta

	for _, e := range evs {
		pid := pids[e.Run]
		step := map[string]any{"step": e.Step, "layer": e.Layer}
		switch e.Kind {
		case KStep:
			slice(e, tidCompute, fmt.Sprintf("step %d", e.Step), map[string]any{"step": e.Step})
		case KLayer:
			slice(e, tidCompute, fmt.Sprintf("layer %d", e.Layer), step)
		case KStall:
			args := map[string]any{"step": e.Step, "layer": e.Layer, "stall_us": micros(e.Dur)}
			name := "stall"
			if e.Tensor != NoTensor {
				args["tensor"] = e.Name
				args["tensor_id"] = int64(e.Tensor)
				name = "stall: " + e.Name
			}
			slice(e, tidCompute, name, args)
		case KMigrateIn, KMigrateOut:
			tid, cname := tidMigrateIn, "inflight-in"
			if e.Kind == KMigrateOut {
				tid, cname = tidMigrateOut, "inflight-out"
			}
			slice(e, tid, string(e.Kind), map[string]any{"bytes": e.Bytes, "step": e.Step, "layer": e.Layer})
			inflight = append(inflight, delta{pid, cname, micros(e.At), e.Bytes})
			inflight = append(inflight, delta{pid, cname, micros(e.At.Add(e.Dur)), -e.Bytes})
		case KDemand:
			instant(e, tidMigrateIn, "demand: "+e.Name,
				map[string]any{"tensor": e.Name, "tensor_id": int64(e.Tensor), "bytes": e.Bytes, "step": e.Step, "layer": e.Layer})
		case KAlloc, KFree:
			instant(e, tidAllocator, string(e.Kind)+": "+e.Name,
				map[string]any{"tensor": e.Name, "bytes": e.Bytes, "step": e.Step, "layer": e.Layer})
		case KPlace:
			instant(e, tidAllocator, "place: "+e.Name,
				map[string]any{"group": e.Name, "tensor_id": int64(e.Tensor), "bytes": e.Bytes})
		case KArenaGrow:
			instant(e, tidAllocator, "arena-grow: "+e.Name,
				map[string]any{"arena": e.Name, "bytes": e.Bytes, "tier": e.Tier.String()})
		case KArenaReclaim:
			instant(e, tidAllocator, "arena-reclaim",
				map[string]any{"bytes": e.Bytes, "tier": e.Tier.String()})
		case KOOMRetry:
			instant(e, tidAllocator, "oom-retry",
				map[string]any{"tensor": e.Name, "need_bytes": e.Bytes, "attempt": e.Count})
		case KMigrateRetry:
			instant(e, tidMigrateIn, "migrate-retry: "+e.Name,
				map[string]any{"tensor": e.Name, "bytes": e.Bytes, "attempt": e.Count, "step": e.Step, "layer": e.Layer})
		case KDegrade:
			instant(e, tidCompute, "degrade: "+e.Name,
				map[string]any{"tensor": e.Name, "reason": degradeReason(e.Count), "step": e.Step, "layer": e.Layer})
		case KPlanDiverged:
			instant(e, tidCompute, "plan-diverged",
				map[string]any{"detail": e.Name, "step": e.Step})
		case KCapShrink:
			instant(e, tidAllocator, "capacity-shrink",
				map[string]any{"bytes": e.Bytes, "step": e.Step})
		case KReprofileArm:
			instant(e, tidCompute, "reprofile-arm: "+e.Name,
				map[string]any{"round": e.Name, "tensors": e.Count, "poisoned_bytes": e.Bytes, "step": e.Step})
		case KReprofileSample:
			instant(e, tidCompute, "reprofile-sample: "+e.Name,
				map[string]any{"tensor": e.Name, "tensor_id": int64(e.Tensor), "accesses_per_step": e.Count, "bytes": e.Bytes, "step": e.Step})
		case KReplan:
			instant(e, tidCompute, "replan",
				map[string]any{"detail": e.Name, "round": e.Count, "step": e.Step})
		case KPlanSwap:
			instant(e, tidMigrateIn, "plan-swap",
				map[string]any{"plan": e.Name, "round": e.Count, "delta_bytes": e.Bytes, "step": e.Step})
		case KCtlTransition:
			instant(e, tidCompute, "controller: "+e.Name,
				map[string]any{"transition": e.Name, "state": e.Count, "step": e.Step})
		case KCellPanic:
			instant(e, tidCompute, "cell-panic: "+e.Name,
				map[string]any{"cell": e.Name})
		case KCellTimeout:
			instant(e, tidCompute, "cell-timeout: "+e.Name,
				map[string]any{"cell": e.Name, "deadline_us": micros(e.Dur)})
		case KSweepCancel:
			instant(e, tidCompute, "sweep-cancel",
				map[string]any{"cell": e.Name})
		case KAccess:
			name := "traffic-fast"
			if e.Tier == TierSlow {
				name = "traffic-slow"
			}
			counter(pid, name, micros(e.At), e.Bytes)
		case KFault:
			counter(pid, "faults", micros(e.At), e.Count)
		}
	}

	sort.SliceStable(inflight, func(i, j int) bool { return inflight[i].ts < inflight[j].ts })
	for _, d := range inflight {
		counter(d.pid, d.name, d.ts, d.bytes)
	}

	doc := map[string]any{"traceEvents": out, "displayTimeUnit": "ms"}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}
