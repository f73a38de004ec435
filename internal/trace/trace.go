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
// a per-step stall-attribution summary. The full schema is documented in
// docs/TRACING.md, which CI cross-checks against Kinds.
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

// Kinds returns every event kind, in schema order. docs/TRACING.md must
// document each of these; a test cross-checks the list.
func Kinds() []Kind {
	return []Kind{
		KStep, KLayer, KAlloc, KFree, KStall, KDemand, KOOMRetry,
		KAccess, KMigrateIn, KMigrateOut, KFault, KArenaGrow,
		KArenaReclaim, KPlace, KMigrateRetry, KDegrade, KPlanDiverged,
		KCapShrink, KReprofileArm, KReprofileSample, KReplan, KPlanSwap,
		KCtlTransition, KCellPanic, KCellTimeout, KSweepCancel,
	}
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
func (e Event) String() string {
	t := simtime.Duration(e.At)
	name := e.Name
	if name == "" {
		name = "?"
	}
	switch e.Kind {
	case KStep:
		return fmt.Sprintf("%12v step=%d span %v", t, e.Step, e.Dur)
	case KLayer:
		return fmt.Sprintf("%12v step=%d layer=%d span %v", t, e.Step, e.Layer, e.Dur)
	case KStall:
		if e.Tensor == NoTensor {
			return fmt.Sprintf("%12v step=%d layer=%d stall %v", t, e.Step, e.Layer, e.Dur)
		}
		return fmt.Sprintf("%12v step=%d layer=%d stall %v waiting for %s", t, e.Step, e.Layer, e.Dur, name)
	case KDemand:
		return fmt.Sprintf("%12v step=%d layer=%d demand %s (%s)", t, e.Step, e.Layer, name, simtime.Bytes(e.Bytes))
	case KOOMRetry:
		return fmt.Sprintf("%12v step=%d layer=%d oom-retry %s need %s attempt %d", t, e.Step, e.Layer, name, simtime.Bytes(e.Bytes), e.Count)
	case KAccess:
		return fmt.Sprintf("%12v step=%d layer=%d access %s %s (%s)", t, e.Step, e.Layer, e.Tier, name, simtime.Bytes(e.Bytes))
	case KMigrateIn, KMigrateOut:
		return fmt.Sprintf("%12v step=%d layer=%d %-11s %s over %v", t, e.Step, e.Layer, e.Kind, simtime.Bytes(e.Bytes), e.Dur)
	case KFault:
		return fmt.Sprintf("%12v step=%d layer=%d fault x%d over %s", t, e.Step, e.Layer, e.Count, simtime.Bytes(e.Bytes))
	case KArenaGrow:
		return fmt.Sprintf("%12v step=%d layer=%d arena-grow %s +%s on %s", t, e.Step, e.Layer, name, simtime.Bytes(e.Bytes), e.Tier)
	case KArenaReclaim:
		return fmt.Sprintf("%12v step=%d layer=%d arena-reclaim %s from %s", t, e.Step, e.Layer, simtime.Bytes(e.Bytes), e.Tier)
	case KPlace:
		return fmt.Sprintf("%12v step=%d layer=%d place tensor %d -> %s (%s)", t, e.Step, e.Layer, e.Tensor, name, simtime.Bytes(e.Bytes))
	case KMigrateRetry:
		return fmt.Sprintf("%12v step=%d layer=%d migrate-retry %s (%s) attempt %d", t, e.Step, e.Layer, name, simtime.Bytes(e.Bytes), e.Count)
	case KDegrade:
		return fmt.Sprintf("%12v step=%d layer=%d degrade %s: %s", t, e.Step, e.Layer, name, degradeReason(e.Count))
	case KPlanDiverged:
		return fmt.Sprintf("%12v step=%d layer=%d plan-diverged %s", t, e.Step, e.Layer, name)
	case KCapShrink:
		return fmt.Sprintf("%12v step=%d layer=%d capacity-shrink -%s", t, e.Step, e.Layer, simtime.Bytes(e.Bytes))
	case KReprofileArm:
		return fmt.Sprintf("%12v step=%d layer=%d reprofile-arm %s: %d tensors (%s poisoned)", t, e.Step, e.Layer, name, e.Count, simtime.Bytes(e.Bytes))
	case KReprofileSample:
		return fmt.Sprintf("%12v step=%d layer=%d reprofile-sample %s: %d accesses/step (%s)", t, e.Step, e.Layer, name, e.Count, simtime.Bytes(e.Bytes))
	case KReplan:
		return fmt.Sprintf("%12v step=%d layer=%d replan round %d: %s", t, e.Step, e.Layer, e.Count, name)
	case KPlanSwap:
		return fmt.Sprintf("%12v step=%d layer=%d plan-swap round %d: %s (%s delta)", t, e.Step, e.Layer, e.Count, name, simtime.Bytes(e.Bytes))
	case KCtlTransition:
		return fmt.Sprintf("%12v step=%d layer=%d controller-transition %s", t, e.Step, e.Layer, name)
	case KCellPanic:
		return fmt.Sprintf("%12v cell-panic %s (cell quarantined)", t, name)
	case KCellTimeout:
		return fmt.Sprintf("%12v cell-timeout %s after %v (cell quarantined)", t, name, e.Dur)
	case KSweepCancel:
		return fmt.Sprintf("%12v sweep-cancel %s (remaining cells skipped)", t, name)
	case KAlloc, KFree:
		return fmt.Sprintf("%12v step=%d layer=%d %-11s %s (%s)", t, e.Step, e.Layer, e.Kind, name, simtime.Bytes(e.Bytes))
	default: // any future instant kind; sentinel-vet's tracekinds check demands an explicit case
		return fmt.Sprintf("%12v step=%d layer=%d %-11s %s (%s)", t, e.Step, e.Layer, e.Kind, name, simtime.Bytes(e.Bytes))
	}
}
