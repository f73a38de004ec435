// Package trace is the unified runtime observability layer: a single
// structured event bus that every simulated subsystem — the execution
// engine (internal/exec), the OS memory manager (internal/kernel) and the
// framework allocator (internal/alloc) — emits into, replacing the
// per-package ad-hoc sinks that preceded it.
//
// The paper's results hinge on *when* migrations overlap compute and
// *where* stalls land (Sec. V–VII, Fig. 9); the bus makes those timelines
// first-class. Events carry virtual-time spans, tensor attribution, and
// byte payloads, and are buffered in a fixed-capacity ring so tracing a
// run costs one allocation up front and never grows without bound. The
// bus is safe for concurrent emit, so one bus may be shared across the
// parallel experiment sweep (internal/experiment's worker pool), with the
// per-run Sink stamping each event with its originating run.
//
// Exporters turn a captured event stream into a Chrome trace-event JSON
// file (loadable in Perfetto or chrome://tracing, with compute and the
// two migration directions on distinct tracks), a plain-text timeline, or
// a per-step stall-attribution summary. The schema is one table, one row
// per Kind holding its text line and its Chrome events; docs/TRACING.md
// documents every kind, and TestTraceSchemaClosed checks the table
// against both the Kind constants and that document.
package trace

import (
	"fmt"

	"sentinel/internal/simtime"
	"sentinel/internal/tensor"
)

// Kind classifies trace events. The string values are the stable, exported
// schema: they appear verbatim in text timelines, Chrome trace categories,
// and docs/TRACING.md.
type Kind string

// Event kinds, grouped by the subsystem that emits them.
const (
	// KStep is one training step as a span (internal/exec).
	KStep Kind = "step"
	// KLayer is one layer of a step as a span (internal/exec).
	KLayer Kind = "layer"
	// KAlloc records a tensor allocation (internal/exec).
	KAlloc Kind = "alloc"
	// KFree records a tensor free (internal/exec).
	KFree Kind = "free"
	// KStall is execution time exposed on the critical path, as a span;
	// attributed to the tensor being waited on when known
	// (internal/exec).
	KStall Kind = "stall"
	// KDemand records a demand migration triggered by an access rather
	// than a prefetch decision (internal/exec).
	KDemand Kind = "demand"
	// KOOMRetry records an eviction retry under fast-memory pressure
	// before an allocation or demand migration succeeds (internal/exec).
	KOOMRetry Kind = "oom-retry"
	// KAccess records demand traffic served by one tier (internal/exec).
	KAccess Kind = "access"
	// KMigrateIn is a slow->fast migration batch as a span over its
	// channel service time (internal/kernel).
	KMigrateIn Kind = "migrate-in"
	// KMigrateOut is a fast->slow migration batch as a span over its
	// channel service time (internal/kernel).
	KMigrateOut Kind = "migrate-out"
	// KFault records profiling protection faults taken by one page
	// touch (internal/kernel).
	KFault Kind = "fault"
	// KArenaGrow records the allocator mapping a fresh page chunk for
	// an arena (internal/alloc).
	KArenaGrow Kind = "arena-grow"
	// KArenaReclaim records the allocator unmapping cached dead chunks
	// under memory pressure (internal/alloc).
	KArenaReclaim Kind = "arena-reclaim"
	// KPlace records a co-allocation decision: which packing group a
	// tensor was assigned to (internal/alloc).
	KPlace Kind = "place"
	// KMigrateRetry records a migration batch that transiently failed
	// and is being retried; the failed attempt's channel time is wasted
	// (internal/exec, under fault injection).
	KMigrateRetry Kind = "migrate-retry"
	// KDegrade records the runtime degrading service: falling back to
	// demand paging or zero-copy access for a tensor, or suppressing
	// prefetch entirely (internal/exec).
	KDegrade Kind = "degrade"
	// KPlanDiverged records the divergence monitor concluding that the
	// static migration plan no longer matches observed behaviour
	// (internal/exec).
	KPlanDiverged Kind = "plan-diverged"
	// KCapShrink records the fast tier losing capacity mid-run, e.g.
	// injected co-tenant pressure (internal/exec).
	KCapShrink Kind = "capacity-shrink"
	// KReprofileArm records sampled online re-profiling being armed: a
	// deterministic subset of long-lived tensors is re-poisoned and fault
	// accounting switches back on (internal/profile, online mode).
	KReprofileArm Kind = "reprofile-arm"
	// KReprofileSample records one sampled tensor's observed access count
	// when a re-profiling round finishes (internal/profile, online mode).
	KReprofileSample Kind = "reprofile-sample"
	// KReplan records the online controller deciding to rebuild the
	// migration plan from blended access counts (internal/exec, online
	// mode).
	KReplan Kind = "replan"
	// KPlanSwap records the rebuilt migration plan being hot-swapped in
	// at a step boundary; live placements are reused, so only the delta
	// migrates (internal/core, online mode).
	KPlanSwap Kind = "plan-swap"
	// KCtlTransition records one transition of the online controller's
	// state machine (internal/exec, online mode).
	KCtlTransition Kind = "controller-transition"
	// KCellPanic records the experiment runner quarantining a sweep cell
	// whose simulation panicked; the cell's result is excluded and the
	// rest of the sweep continues (internal/experiment).
	KCellPanic Kind = "cell-panic"
	// KCellTimeout records the experiment runner quarantining a sweep
	// cell that exceeded its wall-clock deadline (internal/experiment).
	KCellTimeout Kind = "cell-timeout"
	// KSweepCancel records the sweep being cancelled (SIGINT/SIGTERM or
	// a cancelled context); remaining cells are skipped and tables are
	// emitted marked incomplete (internal/experiment).
	KSweepCancel Kind = "sweep-cancel"
)

// kindRow is one row of the trace schema: a kind, its text-timeline
// line, and the Chrome trace events it becomes.
type kindRow struct {
	kind   Kind
	text   func(Event) string
	chrome func(*chromeDoc, Event)
}

// schema is the trace schema, one row per Kind in schema order. It is
// the only place that knows how a kind renders; TestTraceSchemaClosed
// checks that every Kind constant has exactly one row and that
// docs/TRACING.md documents it.
var schema = []kindRow{
	{KStep,
		func(e Event) string {
			return fmt.Sprintf("%12v step=%d span %v", simtime.Duration(e.At), e.Step, e.Dur)
		},
		func(d *chromeDoc, e Event) {
			d.slice(e, tidCompute, fmt.Sprintf("step %d", e.Step), map[string]any{"step": e.Step})
		}},
	{KLayer,
		func(e Event) string { return fmt.Sprintf("%s span %v", e.where(), e.Dur) },
		func(d *chromeDoc, e Event) {
			d.slice(e, tidCompute, fmt.Sprintf("layer %d", e.Layer), map[string]any{"step": e.Step, "layer": e.Layer})
		}},
	{KAlloc, textGeneric, chromeAllocFree},
	{KFree, textGeneric, chromeAllocFree},
	{KStall,
		func(e Event) string {
			if e.Tensor == NoTensor {
				return fmt.Sprintf("%s stall %v", e.where(), e.Dur)
			}
			return fmt.Sprintf("%s stall %v waiting for %s", e.where(), e.Dur, e.who())
		},
		func(d *chromeDoc, e Event) {
			args := map[string]any{"step": e.Step, "layer": e.Layer, "stall_us": micros(e.Dur)}
			name := "stall"
			if e.Tensor != NoTensor {
				args["tensor"] = e.Name
				args["tensor_id"] = int64(e.Tensor)
				name = "stall: " + e.Name
			}
			d.slice(e, tidCompute, name, args)
		}},
	{KDemand,
		func(e Event) string {
			return fmt.Sprintf("%s demand %s (%s)", e.where(), e.who(), simtime.Bytes(e.Bytes))
		},
		func(d *chromeDoc, e Event) {
			d.instant(e, tidMigrateIn, "demand: "+e.Name,
				map[string]any{"tensor": e.Name, "tensor_id": int64(e.Tensor), "bytes": e.Bytes, "step": e.Step, "layer": e.Layer})
		}},
	{KOOMRetry,
		func(e Event) string {
			return fmt.Sprintf("%s oom-retry %s need %s attempt %d", e.where(), e.who(), simtime.Bytes(e.Bytes), e.Count)
		},
		func(d *chromeDoc, e Event) {
			d.instant(e, tidAllocator, "oom-retry",
				map[string]any{"tensor": e.Name, "need_bytes": e.Bytes, "attempt": e.Count})
		}},
	{KAccess,
		func(e Event) string {
			return fmt.Sprintf("%s access %s %s (%s)", e.where(), e.Tier, e.who(), simtime.Bytes(e.Bytes))
		},
		func(d *chromeDoc, e Event) {
			name := "traffic-fast"
			if e.Tier == TierSlow {
				name = "traffic-slow"
			}
			d.counter(d.pids[e.Run], name, micros(e.At), e.Bytes)
		}},
	{KMigrateIn, textMigrate, chromeMigrate},
	{KMigrateOut, textMigrate, chromeMigrate},
	{KFault,
		func(e Event) string {
			return fmt.Sprintf("%s fault x%d over %s", e.where(), e.Count, simtime.Bytes(e.Bytes))
		},
		func(d *chromeDoc, e Event) { d.counter(d.pids[e.Run], "faults", micros(e.At), e.Count) }},
	{KArenaGrow,
		func(e Event) string {
			return fmt.Sprintf("%s arena-grow %s +%s on %s", e.where(), e.who(), simtime.Bytes(e.Bytes), e.Tier)
		},
		func(d *chromeDoc, e Event) {
			d.instant(e, tidAllocator, "arena-grow: "+e.Name,
				map[string]any{"arena": e.Name, "bytes": e.Bytes, "tier": e.Tier.String()})
		}},
	{KArenaReclaim,
		func(e Event) string {
			return fmt.Sprintf("%s arena-reclaim %s from %s", e.where(), simtime.Bytes(e.Bytes), e.Tier)
		},
		func(d *chromeDoc, e Event) {
			d.instant(e, tidAllocator, "arena-reclaim", map[string]any{"bytes": e.Bytes, "tier": e.Tier.String()})
		}},
	{KPlace,
		func(e Event) string {
			return fmt.Sprintf("%s place tensor %d -> %s (%s)", e.where(), e.Tensor, e.who(), simtime.Bytes(e.Bytes))
		},
		func(d *chromeDoc, e Event) {
			d.instant(e, tidAllocator, "place: "+e.Name,
				map[string]any{"group": e.Name, "tensor_id": int64(e.Tensor), "bytes": e.Bytes})
		}},
	{KMigrateRetry,
		func(e Event) string {
			return fmt.Sprintf("%s migrate-retry %s (%s) attempt %d", e.where(), e.who(), simtime.Bytes(e.Bytes), e.Count)
		},
		func(d *chromeDoc, e Event) {
			d.instant(e, tidMigrateIn, "migrate-retry: "+e.Name,
				map[string]any{"tensor": e.Name, "bytes": e.Bytes, "attempt": e.Count, "step": e.Step, "layer": e.Layer})
		}},
	{KDegrade,
		func(e Event) string {
			return fmt.Sprintf("%s degrade %s: %s", e.where(), e.who(), degradeReason(e.Count))
		},
		func(d *chromeDoc, e Event) {
			d.instant(e, tidCompute, "degrade: "+e.Name,
				map[string]any{"tensor": e.Name, "reason": degradeReason(e.Count), "step": e.Step, "layer": e.Layer})
		}},
	{KPlanDiverged,
		func(e Event) string { return fmt.Sprintf("%s plan-diverged %s", e.where(), e.who()) },
		func(d *chromeDoc, e Event) {
			d.instant(e, tidCompute, "plan-diverged", map[string]any{"detail": e.Name, "step": e.Step})
		}},
	{KCapShrink,
		func(e Event) string { return fmt.Sprintf("%s capacity-shrink -%s", e.where(), simtime.Bytes(e.Bytes)) },
		func(d *chromeDoc, e Event) {
			d.instant(e, tidAllocator, "capacity-shrink", map[string]any{"bytes": e.Bytes, "step": e.Step})
		}},
	{KReprofileArm,
		func(e Event) string {
			return fmt.Sprintf("%s reprofile-arm %s: %d tensors (%s poisoned)", e.where(), e.who(), e.Count, simtime.Bytes(e.Bytes))
		},
		func(d *chromeDoc, e Event) {
			d.instant(e, tidCompute, "reprofile-arm: "+e.Name,
				map[string]any{"round": e.Name, "tensors": e.Count, "poisoned_bytes": e.Bytes, "step": e.Step})
		}},
	{KReprofileSample,
		func(e Event) string {
			return fmt.Sprintf("%s reprofile-sample %s: %d accesses/step (%s)", e.where(), e.who(), e.Count, simtime.Bytes(e.Bytes))
		},
		func(d *chromeDoc, e Event) {
			d.instant(e, tidCompute, "reprofile-sample: "+e.Name,
				map[string]any{"tensor": e.Name, "tensor_id": int64(e.Tensor), "accesses_per_step": e.Count, "bytes": e.Bytes, "step": e.Step})
		}},
	{KReplan,
		func(e Event) string { return fmt.Sprintf("%s replan round %d: %s", e.where(), e.Count, e.who()) },
		func(d *chromeDoc, e Event) {
			d.instant(e, tidCompute, "replan", map[string]any{"detail": e.Name, "round": e.Count, "step": e.Step})
		}},
	{KPlanSwap,
		func(e Event) string {
			return fmt.Sprintf("%s plan-swap round %d: %s (%s delta)", e.where(), e.Count, e.who(), simtime.Bytes(e.Bytes))
		},
		func(d *chromeDoc, e Event) {
			d.instant(e, tidMigrateIn, "plan-swap",
				map[string]any{"plan": e.Name, "round": e.Count, "delta_bytes": e.Bytes, "step": e.Step})
		}},
	{KCtlTransition,
		func(e Event) string { return fmt.Sprintf("%s controller-transition %s", e.where(), e.who()) },
		func(d *chromeDoc, e Event) {
			d.instant(e, tidCompute, "controller: "+e.Name,
				map[string]any{"transition": e.Name, "state": e.Count, "step": e.Step})
		}},
	{KCellPanic,
		func(e Event) string {
			return fmt.Sprintf("%12v cell-panic %s (cell quarantined)", simtime.Duration(e.At), e.who())
		},
		func(d *chromeDoc, e Event) {
			d.instant(e, tidCompute, "cell-panic: "+e.Name, map[string]any{"cell": e.Name})
		}},
	{KCellTimeout,
		func(e Event) string {
			return fmt.Sprintf("%12v cell-timeout %s after %v (cell quarantined)", simtime.Duration(e.At), e.who(), e.Dur)
		},
		func(d *chromeDoc, e Event) {
			d.instant(e, tidCompute, "cell-timeout: "+e.Name, map[string]any{"cell": e.Name, "deadline_us": micros(e.Dur)})
		}},
	{KSweepCancel,
		func(e Event) string {
			return fmt.Sprintf("%12v sweep-cancel %s (remaining cells skipped)", simtime.Duration(e.At), e.who())
		},
		func(d *chromeDoc, e Event) { d.instant(e, tidCompute, "sweep-cancel", map[string]any{"cell": e.Name}) }},
}

// unknownRow renders a Kind with no schema row: the generic text line,
// and nothing in a Chrome trace.
var unknownRow = kindRow{text: textGeneric, chrome: func(*chromeDoc, Event) {}}

// rowOf returns k's schema row, or unknownRow.
func rowOf(k Kind) kindRow {
	for _, r := range schema {
		if r.kind == k {
			return r
		}
	}
	return unknownRow
}

// Kinds returns every event kind, in schema order.
func Kinds() []Kind {
	out := make([]Kind, len(schema))
	for i, r := range schema {
		out[i] = r.kind
	}
	return out
}

// textGeneric is the timeline line of alloc, free and any kind without
// a row of its own.
func textGeneric(e Event) string {
	return fmt.Sprintf("%s %-11s %s (%s)", e.where(), e.Kind, e.who(), simtime.Bytes(e.Bytes))
}

func textMigrate(e Event) string {
	return fmt.Sprintf("%s %-11s %s over %v", e.where(), e.Kind, simtime.Bytes(e.Bytes), e.Dur)
}

func chromeAllocFree(d *chromeDoc, e Event) {
	d.instant(e, tidAllocator, string(e.Kind)+": "+e.Name,
		map[string]any{"tensor": e.Name, "bytes": e.Bytes, "step": e.Step, "layer": e.Layer})
}

// chromeMigrate draws a migration batch as a slice on its direction's
// track and records the in-flight bytes it adds and then releases.
func chromeMigrate(d *chromeDoc, e Event) {
	tid, cname := tidMigrateIn, "inflight-in"
	if e.Kind == KMigrateOut {
		tid, cname = tidMigrateOut, "inflight-out"
	}
	d.slice(e, tid, string(e.Kind), map[string]any{"bytes": e.Bytes, "step": e.Step, "layer": e.Layer})
	pid := d.pids[e.Run]
	d.inflight = append(d.inflight,
		inflightDelta{pid, cname, micros(e.At), e.Bytes},
		inflightDelta{pid, cname, micros(e.At.Add(e.Dur)), -e.Bytes})
}

// Tier identifies the memory tier an event concerns. The zero value is
// TierNone so events without a tier need not set the field. Values mirror
// memsys.Fast/memsys.Slow but are redeclared here to keep this package at
// the bottom of the dependency graph, below every package that emits
// events.
type Tier int8

const (
	// TierNone marks events with no tier affinity.
	TierNone Tier = iota
	// TierFast is the small high-bandwidth tier (DRAM / GPU HBM).
	TierFast
	// TierSlow is the large low-bandwidth tier (PMM / host memory).
	TierSlow
)

// String returns "fast", "slow", or "-".
func (t Tier) String() string {
	switch t {
	case TierFast:
		return "fast"
	case TierSlow:
		return "slow"
	default:
		return "-"
	}
}

// NoTensor is the Tensor field value for events not attributed to a
// tensor. Emitters must set it explicitly: tensor.ID zero is a valid id.
const NoTensor tensor.ID = -1

// Degradation reasons, carried in a degrade event's Count field.
const (
	// DegradeDemandPaging: the tensor's prefetches are abandoned; it is
	// fetched on demand from now on.
	DegradeDemandPaging int64 = 1
	// DegradeZeroCopy: the tensor is pinned in the slow tier and accessed
	// in place, never migrated again.
	DegradeZeroCopy int64 = 2
	// DegradeDemandOnly: prefetching is suppressed run-wide; every
	// migration from here on is demand-driven.
	DegradeDemandOnly int64 = 3
)

func degradeReason(c int64) string {
	switch c {
	case DegradeDemandPaging:
		return "demand paging"
	case DegradeZeroCopy:
		return "zero-copy"
	case DegradeDemandOnly:
		return "demand-only mode"
	default:
		return fmt.Sprintf("reason %d", c)
	}
}

// Event is one structured trace record. Instant events have Dur == 0;
// span events cover [At, At+Dur). All times are virtual nanoseconds since
// the start of the simulation (simtime), never wall-clock.
//
// Ordering guarantees: within one run, events are emitted in simulation
// order except span kinds (step, layer, stall, migrate-in, migrate-out),
// which are emitted when the span's extent is known — at its close — and
// therefore appear after the events they enclose. Bus.Events returns
// emission order; exporters re-sort by (Run, At, widest-span-first), which
// restores timeline order. Across runs sharing one bus, events interleave
// in emission order; the Run label is the only cross-run ordering key.
type Event struct {
	// At is the event instant, or the span start for span events.
	At simtime.Time
	// Dur is the span length; 0 for instant events. For stalls this is
	// the stalled time itself (it is NOT overloaded onto Bytes).
	Dur simtime.Duration
	// Kind classifies the event.
	Kind Kind
	// Step is the training-step index, or -1 outside any step.
	Step int
	// Layer is the layer index within the step, or -1 outside any layer.
	Layer int
	// Tensor is the attributed tensor, or NoTensor.
	Tensor tensor.ID
	// Name is the attributed tensor's name, or an arena/group key for
	// allocator events (arena-grow, place); empty when unattributed.
	Name string
	// Bytes is the event's byte payload: bytes allocated, migrated,
	// accessed, mapped, or reclaimed. 0 when not applicable.
	Bytes int64
	// Count is an event-specific count: protection faults taken
	// (fault), or the retry attempt number (oom-retry).
	Count int64
	// Tier is the tier the event concerns (access, arena-grow,
	// arena-reclaim); TierNone otherwise.
	Tier Tier
	// Run labels the originating run on buses shared across runs
	// (experiment sweeps); empty for single-run traces. Stamped by the
	// Sink, not by emitters.
	Run string
}

// String renders the event as one timeline log line.
func (e Event) String() string { return rowOf(e.Kind).text(e) }

// where is the "<time> step=S layer=L" prefix most timeline lines share.
func (e Event) where() string {
	return fmt.Sprintf("%12v step=%d layer=%d", simtime.Duration(e.At), e.Step, e.Layer)
}

// who is the event's attributed name, or "?" when it has none.
func (e Event) who() string {
	if e.Name == "" {
		return "?"
	}
	return e.Name
}
