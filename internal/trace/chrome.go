package trace

import (
	"encoding/json"
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
	d := &chromeDoc{pids: map[string]int{}, totals: map[counterKey]int64{}}
	var runs []string
	for _, e := range evs {
		if _, ok := d.pids[e.Run]; !ok {
			d.pids[e.Run] = len(d.pids) + 1
			runs = append(runs, e.Run)
		}
	}

	for _, run := range runs {
		pid := d.pids[run]
		name := run
		if name == "" {
			name = "run"
		}
		d.add(map[string]any{"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
			"args": map[string]any{"name": name}})
		for _, tid := range []int{tidCompute, tidMigrateIn, tidMigrateOut, tidAllocator} {
			d.add(map[string]any{"ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
				"args": map[string]any{"name": tidNames[tid]}})
			d.add(map[string]any{"ph": "M", "name": "thread_sort_index", "pid": pid, "tid": tid,
				"args": map[string]any{"sort_index": tid}})
		}
	}

	for _, e := range evs {
		rowOf(e.Kind).chrome(d, e)
	}

	sort.SliceStable(d.inflight, func(i, j int) bool { return d.inflight[i].ts < d.inflight[j].ts })
	for _, f := range d.inflight {
		d.counter(f.pid, f.name, f.ts, f.bytes)
	}

	doc := map[string]any{"traceEvents": d.events, "displayTimeUnit": "ms"}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// chromeDoc is a Chrome trace-event document being built. The schema's
// chrome renderers write into it.
type chromeDoc struct {
	pids   map[string]int // process id per run label
	events []map[string]any
	totals map[counterKey]int64 // counter values, accumulated in timeline order per run
	// inflight holds the in-flight (occupancy) deltas generated at
	// migration span start and end, replayed in time order after the
	// main pass.
	inflight []inflightDelta
}

type counterKey struct {
	pid  int
	name string
}

type inflightDelta struct {
	pid   int
	name  string
	ts    float64
	bytes int64
}

func (d *chromeDoc) add(m map[string]any) { d.events = append(d.events, m) }

// slice adds a complete ("X") event spanning e.
func (d *chromeDoc) slice(e Event, tid int, name string, args map[string]any) {
	d.add(map[string]any{"ph": "X", "cat": string(e.Kind), "name": name,
		"pid": d.pids[e.Run], "tid": tid, "ts": micros(e.At), "dur": micros(e.Dur),
		"args": args})
}

// instant adds a thread-scoped instant ("i") event at e.At.
func (d *chromeDoc) instant(e Event, tid int, name string, args map[string]any) {
	d.add(map[string]any{"ph": "i", "s": "t", "cat": string(e.Kind), "name": name,
		"pid": d.pids[e.Run], "tid": tid, "ts": micros(e.At), "args": args})
}

// counter moves the named counter of process pid by delta at ts.
func (d *chromeDoc) counter(pid int, name string, ts float64, delta int64) {
	k := counterKey{pid, name}
	d.totals[k] += delta
	d.add(map[string]any{"ph": "C", "name": name, "pid": pid, "tid": 0, "ts": ts,
		"args": map[string]any{"value": d.totals[k]}})
}
