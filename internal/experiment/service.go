package experiment

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"sentinel/internal/chaos"
	"sentinel/internal/exec"
	"sentinel/internal/gpu"
	"sentinel/internal/memsys"
	"sentinel/internal/metrics"
	"sentinel/internal/model"
	"sentinel/internal/policyset"
	"sentinel/internal/profile"
)

// This file is the request-shaped entry point into the experiment
// harness: typed request structs with validation, used by
// cmd/sentinel-serve (and usable by any other embedder that wants to
// submit work without building cellRun values by hand). Every request
// funnels into the same worker pool, plan cache, and quarantine
// the CLI sweeps use, so a served response is computed by exactly the
// code path a sentinel-bench invocation would take.

// ErrBadRequest is the sentinel all request-validation failures wrap,
// so transport layers can map errors.Is(err, ErrBadRequest) to a 400
// while everything else stays a 500.
var ErrBadRequest = errors.New("invalid request")

// RequestError is one rejected request field. It wraps ErrBadRequest.
type RequestError struct {
	// Field names the offending request field (JSON name).
	Field string
	// Reason says what is wrong with it, in client-facing terms.
	Reason string
}

// Error renders "field: reason".
func (e *RequestError) Error() string { return fmt.Sprintf("%s: %s", e.Field, e.Reason) }

// Unwrap makes errors.Is(err, ErrBadRequest) hold.
func (e *RequestError) Unwrap() error { return ErrBadRequest }

// badField builds a *RequestError for field.
func badField(field, format string, args ...any) *RequestError {
	return &RequestError{Field: field, Reason: fmt.Sprintf(format, args...)}
}

// platforms maps the platform names requests use to machine presets.
// The map is never iterated for output — Platforms() sorts.
var platforms = map[string]func() memsys.Spec{
	"optane":   memsys.OptaneHM,
	"gpu":      memsys.GPUHM,
	"gpu-a100": memsys.GPUHM_A100,
	"cxl":      memsys.CXLHM,
}

// Platforms lists the requestable machine-preset names, sorted.
func Platforms() []string {
	names := make([]string, 0, len(platforms))
	for n := range platforms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Platform resolves a preset name ("" means optane) to its machine spec.
func Platform(name string) (memsys.Spec, error) {
	if name == "" {
		name = "optane"
	}
	f, ok := platforms[name]
	if !ok {
		return memsys.Spec{}, badField("platform", "unknown platform %q (known: %v)", name, Platforms())
	}
	return f(), nil
}

// Known reports whether id names a registered experiment.
func Known(id string) bool {
	return find(id) != nil
}

// validateWorkload checks the model and batch every workload request
// names, in that order; a request checks its platform with Platform.
func validateWorkload(name string, batch int) error {
	if name == "" {
		return badField("model", "required (known: %v)", model.Names())
	}
	if !model.Known(name) {
		return badField("model", "unknown model %q (known: %v)", name, model.Names())
	}
	if batch < 1 || batch > BatchLimit {
		return badField("batch", "must be in [1, %d], got %d", BatchLimit, batch)
	}
	return nil
}

// BatchLimit is the largest batch size a CellRequest or PlanRequest
// accepts: Table V's max-batch search ceiling.
const BatchLimit = gpu.BatchLimit

// CellRequest asks for one simulation cell: train Model at Batch for
// Steps steps under Policy on Platform, with the fast tier sized either
// explicitly (FastBytes) or as a percentage of the model's peak memory
// (FastPct). The zero sizing keeps the platform preset's fast tier.
// Batch must be in [1, BatchLimit].
type CellRequest struct {
	Model    string `json:"model"`
	Batch    int    `json:"batch"`
	Policy   string `json:"policy"`
	Platform string `json:"platform,omitempty"`
	// FastPct sizes the fast tier as a percentage of the model's peak
	// memory (the paper's capacity axis). Mutually exclusive with
	// FastBytes. It must be finite, and the size it yields must fit in
	// an int64.
	FastPct float64 `json:"fast_pct,omitempty"`
	// FastBytes sizes the fast tier explicitly.
	FastBytes int64 `json:"fast_bytes,omitempty"`
	// Steps is the number of training steps; 0 means the default (5).
	Steps int `json:"steps,omitempty"`
	// Chaos injects faults into the cell (the -chaos-* flags; see
	// docs/ROBUSTNESS.md). Omitted or zero means a clean run. Perturbed
	// cells are cached under chaos-qualified keys.
	Chaos *chaos.Config `json:"chaos,omitempty"`
	// Online arms the adaptive controller (sentinel-train's -online
	// flag; see the online controller section of docs/ROBUSTNESS.md).
	// Adaptive cells are cached under online-qualified keys.
	Online bool `json:"online,omitempty"`
}

// Normalized fills defaults: optane platform, 5 steps.
func (r CellRequest) Normalized() CellRequest {
	if r.Platform == "" {
		r.Platform = "optane"
	}
	if r.Steps == 0 {
		r.Steps = 5
	}
	return r
}

// Validate checks every field against the registries, returning a
// *RequestError (wrapping ErrBadRequest) naming the first offending
// field. Call on a Normalized request.
func (r CellRequest) Validate() error {
	if err := validateWorkload(r.Model, r.Batch); err != nil {
		return err
	}
	if r.Policy == "" {
		return badField("policy", "required (known: %v)", policyset.Names())
	}
	if _, err := policyset.New(r.Policy); err != nil {
		return badField("policy", "unknown policy %q (known: %v)", r.Policy, policyset.Names())
	}
	if _, err := Platform(r.Platform); err != nil {
		return err
	}
	if math.IsNaN(r.FastPct) || math.IsInf(r.FastPct, 0) {
		return badField("fast_pct", "must be a finite percentage, got %g", r.FastPct)
	}
	if r.FastPct < 0 {
		return badField("fast_pct", "must be non-negative, got %g", r.FastPct)
	}
	if r.FastBytes < 0 {
		return badField("fast_bytes", "must be non-negative, got %d", r.FastBytes)
	}
	if r.FastPct > 0 && r.FastBytes > 0 {
		return badField("fast_pct", "fast_pct and fast_bytes are mutually exclusive")
	}
	if r.Steps < 1 || r.Steps > 1000 {
		return badField("steps", "must be in [1, 1000], got %d", r.Steps)
	}
	if r.Chaos != nil {
		if err := r.Chaos.Validate(); err != nil {
			return badField("chaos", "%v", err)
		}
	}
	return nil
}

// spec resolves the request's machine spec, sizing the fast tier from
// FastBytes or FastPct (via the memoized peak-memory lookup). A size
// that overflows int64 or that memsys rejects (under one page) is a
// *RequestError on the sizing field.
func (r CellRequest) spec(o Options) (memsys.Spec, error) {
	spec, err := Platform(r.Platform)
	if err != nil {
		return memsys.Spec{}, err
	}
	field := "fast_bytes"
	switch {
	case r.FastBytes > 0:
		spec = spec.WithFastSize(r.FastBytes)
	case r.FastPct > 0:
		field = "fast_pct"
		peak, err := o.peak(r.Model, r.Batch)
		if err != nil {
			return memsys.Spec{}, err
		}
		size := r.FastPct / 100 * float64(peak)
		if size >= 1<<63 {
			return memsys.Spec{}, badField(field, "%g%% of the %d-byte peak does not fit in int64", r.FastPct, peak)
		}
		spec = spec.WithFastSize(int64(size))
	default:
		return spec, nil
	}
	if err := spec.Validate(); err != nil {
		return memsys.Spec{}, badField(field, "%v", err)
	}
	return spec, nil
}

// RunCell executes one requested simulation cell through the shared
// plan cache (singleflight: concurrent identical requests compute
// once) and the fault boundary (runCell). A request belongs to no
// table, so nothing is quarantined: a panicking, timed-out or cancelled
// cell comes back as a typed error, never a crash. Results are
// deterministic: identical requests yield identical stats whether
// computed or cached.
func RunCell(o Options, r CellRequest) (*metrics.RunStats, error) {
	c, err := r.cell(o)
	if err != nil {
		return nil, err
	}
	return o.runRequested(c)
}

// ServeCell is RunCell for a server, which answers with the reply render
// encodes from the run. The reply is kept on the cell's cache entry, so
// every later request that resolves to the same cell gets those bytes
// and the cached run back without running or rendering again, and
// counts the one hit the cell's lookup would count. render must depend
// only on the run and on the request's policy and platform, which the
// cell fixes.
func ServeCell(o Options, r CellRequest, render func(*metrics.RunStats) ([]byte, error)) ([]byte, *metrics.RunStats, error) {
	c, err := r.cell(o)
	if err != nil {
		return nil, nil, err
	}
	return serveReply(o, c.key(), func() (*metrics.RunStats, error) { return o.runRequested(c) }, render)
}

// cell resolves the request into the cell it names: its fast tier sized,
// its chaos copied by value and the sweep-wide chaos applied.
func (r CellRequest) cell(o Options) (cellRun, error) {
	r = r.Normalized()
	if err := r.Validate(); err != nil {
		return cellRun{}, err
	}
	spec, err := r.spec(o)
	if err != nil {
		return cellRun{}, err
	}
	c := cellRun{model: r.Model, batch: r.Batch, spec: spec, policy: r.Policy, steps: r.Steps}
	if r.Chaos != nil {
		c.chaos = *r.Chaos
	}
	if r.Online {
		c.online = exec.DefaultOnline()
	}
	return o.withChaos(c), nil
}

// runRequested runs a requested cell, memoized, under the fault boundary.
func (o Options) runRequested(c cellRun) (*metrics.RunStats, error) {
	name := func() (string, *metrics.RunStats) { return c.label(), nil }
	return runCell(o, name, func() (*metrics.RunStats, error) { return o.run(c) })
}

// PlanRequest asks for Sentinel's profiling-and-planning stage on a
// workload without simulating a full training run: which tensors are
// short- versus long-lived, how much fast memory the pinned pool
// reserves, and what the profiled step cost.
type PlanRequest struct {
	Model    string `json:"model"`
	Batch    int    `json:"batch"`
	Platform string `json:"platform,omitempty"`
}

// Normalized fills the default platform.
func (r PlanRequest) Normalized() PlanRequest {
	if r.Platform == "" {
		r.Platform = "optane"
	}
	return r
}

// Validate checks the request fields; see CellRequest.Validate.
func (r PlanRequest) Validate() error {
	if err := validateWorkload(r.Model, r.Batch); err != nil {
		return err
	}
	_, err := Platform(r.Platform)
	return err
}

// PlanSummary is the wire form of a profiling/planning result. All
// durations are virtual nanoseconds, so the summary is byte-stable
// across runs and machines.
type PlanSummary struct {
	Model     string `json:"model"`
	Batch     int    `json:"batch"`
	Platform  string `json:"platform"`
	NumLayers int    `json:"num_layers"`
	Tensors   int    `json:"tensors"`
	// ShortLived tensors live in the reserved pinned fast pool and
	// never migrate; LongLived tensors are the migration plan's units.
	ShortLived int `json:"short_lived"`
	LongLived  int `json:"long_lived"`
	// PeakMemoryBytes is the step's peak mapped bytes; the paper sizes
	// capacity sweeps against it.
	PeakMemoryBytes int64 `json:"peak_memory_bytes"`
	// ReservedPoolBytes is RS: peak concurrent short-lived bytes, the
	// fast memory Sentinel pins for the sub-page population.
	ReservedPoolBytes int64 `json:"reserved_pool_bytes"`
	// ProfiledStepNS and FaultOverheadNS quantify the profiling step
	// (virtual time), Faults the poison-bit fault count.
	ProfiledStepNS  int64 `json:"profiled_step_ns"`
	FaultOverheadNS int64 `json:"fault_overhead_ns"`
	Faults          int64 `json:"faults"`
}

// RunPlan executes the profiling stage for the request, memoized in the
// shared cache under the same key the sweeps use, through the fault
// boundary as RunCell does, and summarizes it.
func RunPlan(o Options, r PlanRequest) (*PlanSummary, error) {
	r, spec, err := r.resolve()
	if err != nil {
		return nil, err
	}
	p, err := o.requestedProfile(r, spec)
	if err != nil {
		return nil, err
	}
	return r.summarize(p), nil
}

// ServePlan is RunPlan for a server, which answers with the reply render
// encodes from the summary. The reply is kept on the profile's cache
// entry, as ServeCell keeps its reply on the cell's.
func ServePlan(o Options, r PlanRequest, render func(*PlanSummary) ([]byte, error)) ([]byte, error) {
	r, spec, err := r.resolve()
	if err != nil {
		return nil, err
	}
	body, _, err := serveReply(o, profileKey(r.Model, r.Batch, spec),
		func() (*profile.Profile, error) { return o.requestedProfile(r, spec) },
		func(p *profile.Profile) ([]byte, error) { return render(r.summarize(p)) })
	return body, err
}

// resolve normalizes and validates the request and looks up its
// platform.
func (r PlanRequest) resolve() (PlanRequest, memsys.Spec, error) {
	r = r.Normalized()
	if err := r.Validate(); err != nil {
		return r, memsys.Spec{}, err
	}
	spec, err := Platform(r.Platform)
	return r, spec, err
}

// requestedProfile collects the request's profile, memoized, under the
// fault boundary.
func (o Options) requestedProfile(r PlanRequest, spec memsys.Spec) (*profile.Profile, error) {
	name := func() (string, *profile.Profile) { return "plan/" + r.Model, nil }
	return runCell(o, name, func() (*profile.Profile, error) {
		return o.collectProfile(r.Model, r.Batch, spec)
	})
}

// summarize is the PlanSummary of the normalized request's profile p.
func (r PlanRequest) summarize(p *profile.Profile) *PlanSummary {
	long := len(p.LongLived())
	return &PlanSummary{
		Model: r.Model, Batch: r.Batch, Platform: r.Platform,
		NumLayers: p.NumLayers, Tensors: len(p.Tensors),
		ShortLived:        len(p.Tensors) - long,
		LongLived:         long,
		PeakMemoryBytes:   p.PeakMemory,
		ReservedPoolBytes: p.PeakShortLived,
		ProfiledStepNS:    int64(p.StepTime),
		FaultOverheadNS:   int64(p.FaultTime),
		Faults:            p.Faults,
	}
}

// SweepRequest asks for one whole experiment (a paper table or figure)
// by registry id — the served equivalent of `sentinel-bench -exp ID`.
type SweepRequest struct {
	ID string `json:"id"`
	// Quick trims the sweep exactly like sentinel-bench -quick.
	Quick bool `json:"quick,omitempty"`
	// Steps per cell; 0 means the default (5).
	Steps int `json:"steps,omitempty"`
}

// Validate checks the experiment id against the registry.
func (r SweepRequest) Validate() error {
	if r.ID == "" {
		return badField("id", "required (known: %v)", IDs())
	}
	if !Known(r.ID) {
		return badField("id", "unknown experiment %q (known: %v)", r.ID, IDs())
	}
	if r.Steps < 0 || r.Steps > 1000 {
		return badField("steps", "must be in [0, 1000], got %d", r.Steps)
	}
	return nil
}

// RunSweep executes the requested experiment on the given base options
// (shared cache, worker-pool width, cancellation) and returns its
// table. The table's rendered bytes — WriteCSV, WriteJSON, String —
// are identical to the equivalent sentinel-bench invocation, because
// this *is* the sentinel-bench code path.
func RunSweep(o Options, r SweepRequest) (*Table, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	o.Quick = r.Quick
	if r.Steps > 0 {
		o.Steps = r.Steps
	}
	return Run(r.ID, o)
}
