package exec

import (
	"sentinel/internal/simtime"
	"sentinel/internal/tensor"
	"sentinel/internal/trace"
)

// WithTrace attaches the runtime to a structured event bus: every engine,
// kernel, and allocator event of the run is emitted through one sink
// stamped with the run label and the current step/layer. The bus may be
// shared across concurrently executing runtimes (the parallel experiment
// sweep does exactly that); label runs distinctly so exporters can
// separate them.
func WithTrace(bus *trace.Bus, run string) Option {
	return func(rt *Runtime) {
		rt.traceBus = bus
		rt.traceRun = run
	}
}

// wireTrace builds the runtime's sink and pushes it down into the kernel
// and allocator layers. Called from NewRuntime once the kernel exists;
// the allocator is wired separately as it is constructed later.
func (rt *Runtime) wireTrace() {
	if rt.traceBus == nil {
		return
	}
	s := trace.NewSink(rt.traceBus, rt.traceRun)
	s.SetContext(func() (step, layer int) {
		if rt.st == nil {
			return -1, -1
		}
		return rt.st.Step, rt.curLayer
	})
	rt.sink = s
	rt.k.SetTrace(s)
}

// emit forwards an event to the run's sink; a nil sink discards it.
func (rt *Runtime) emit(e trace.Event) { rt.sink.Emit(e) }

// Emit forwards an event to the run's sink (nil-safe). Policy-layer
// subsystems with their own event kinds — the online sampler and the
// incremental replanner — emit through here so their events carry the
// run label and step/layer context like engine events.
func (rt *Runtime) Emit(e trace.Event) { rt.sink.Emit(e) }

// noteAccess emits demand traffic served by one tier onto the bus.
//
//perf:hot
func (rt *Runtime) noteAccess(at simtime.Time, tier trace.Tier, n int64, id tensor.ID, name string) {
	// Skip event construction entirely on untraced runs: this is called
	// twice per access in the op inner loop, and building the discarded
	// event was measurable in sweep profiles.
	if n <= 0 || !rt.sink.Enabled() {
		return
	}
	rt.emit(trace.Event{At: at, Kind: trace.KAccess, Tier: tier, Bytes: n, Tensor: id, Name: name})
}
