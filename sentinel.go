// Package sentinel is the public API of the Sentinel reproduction: a
// simulation-based reimplementation of "Sentinel: Efficient Tensor
// Migration and Allocation on Heterogeneous Memory Systems for Deep
// Learning" (HPCA 2021).
//
// The package bundles a heterogeneous-memory machine model, an OS paging
// layer with poison-bit profiling, a TensorFlow-style dataflow engine with
// a model zoo, the Sentinel runtime itself, and the paper's eight
// baselines. Typical use:
//
//	g, _ := sentinel.BuildModel("resnet32", 128)
//	machine := sentinel.OptaneHM().WithFastSize(g.PeakMemory() / 5)
//	run, _ := sentinel.Train(g, machine, "sentinel", 5)
//	fmt.Println(run.SteadyStepTime(), run.Throughput())
//
// Experiments from the paper are regenerated via Experiment:
//
//	table, _ := sentinel.Experiment("fig7", sentinel.DefaultExperimentOptions())
//	fmt.Println(table)
package sentinel

import (
	"io"

	"sentinel/internal/core"
	"sentinel/internal/exec"
	"sentinel/internal/experiment"
	"sentinel/internal/gpu"
	"sentinel/internal/graph"
	"sentinel/internal/memsys"
	"sentinel/internal/metrics"
	"sentinel/internal/model"
	"sentinel/internal/policyset"
	"sentinel/internal/profile"
	"sentinel/internal/simtime"
	"sentinel/internal/trace"
)

// Re-exported core types. The facade aliases the internal packages so
// downstream users never import internal paths.
type (
	// Machine describes a heterogeneous-memory platform.
	Machine = memsys.Spec
	// Graph is one training step of a model.
	Graph = graph.Graph
	// Policy is a tensor-management strategy.
	Policy = exec.Policy
	// Runtime executes a graph on a machine under a policy.
	Runtime = exec.Runtime
	// RunStats aggregates executed steps.
	RunStats = metrics.RunStats
	// StepStats describes one executed step.
	StepStats = metrics.StepStats
	// Profile is the output of tensor-level profiling.
	Profile = profile.Profile
	// Characterization is the Sec. III study output.
	Characterization = profile.Characterization
	// SentinelConfig toggles Sentinel features (ablations).
	SentinelConfig = core.Config
	// ExperimentTable is a rendered experiment result.
	ExperimentTable = experiment.Table
	// ExperimentOptions tunes experiment execution.
	ExperimentOptions = experiment.Options
	// ExperimentCache memoizes profiling runs and plan construction
	// across experiment cells; share one via ExperimentOptions.Cache to
	// deduplicate work across a whole sweep.
	ExperimentCache = experiment.Cache
	// Duration is a span of simulated time.
	Duration = simtime.Duration
	// TraceBus is the unified runtime event bus; attach one to a runtime
	// with WithTrace or to a sweep via ExperimentOptions.Trace, then
	// export its events with ExportTrace.
	TraceBus = trace.Bus
	// TraceEvent is one structured runtime event; see docs/TRACING.md for
	// the schema.
	TraceEvent = trace.Event
)

// OptaneHM returns the paper's CPU platform: DDR4 DRAM (fast) + Optane DC
// persistent memory (slow).
func OptaneHM() Machine { return memsys.OptaneHM() }

// GPUHM returns the paper's GPU platform: V100 global memory (fast) + host
// memory over PCIe (slow).
func GPUHM() Machine { return memsys.GPUHM() }

// BuildModel constructs a model's training-step graph at a batch size.
// Models: resnet{20,32,44,56,110,50,101,152,200}, bert-{base,large}, lstm,
// mobilenet, dcgan.
func BuildModel(name string, batch int) (*Graph, error) {
	return model.Build(name, batch)
}

// Models lists available model names.
func Models() []string { return model.Names() }

// Policies lists available policy names, including the sentinel variants
// and all baselines.
func Policies() []string { return policyset.Names() }

// NewPolicy builds a fresh policy by name.
func NewPolicy(name string) (Policy, error) { return policyset.New(name) }

// NewSentinel builds the Sentinel policy with a custom config. On a
// GPU-like machine it profiles over pinned host memory and reports itself
// as sentinel-gpu (Sec. V).
func NewSentinel(cfg SentinelConfig) Policy { return core.New(cfg) }

// DefaultSentinelConfig returns full-featured Sentinel.
func DefaultSentinelConfig() SentinelConfig { return core.DefaultConfig() }

// NewRuntime binds a graph, machine, and policy for stepwise execution.
func NewRuntime(g *Graph, m Machine, p Policy) (*Runtime, error) {
	return exec.NewRuntime(g, m, p)
}

// NewTraceBus returns a runtime event bus with the given ring capacity
// (0 for the default).
func NewTraceBus(capacity int) *TraceBus { return trace.NewBus(capacity) }

// WithTrace returns a runtime option that emits every engine, kernel, and
// allocator event of the run into the bus under the given run label.
func WithTrace(bus *TraceBus, run string) exec.Option { return exec.WithTrace(bus, run) }

// NewTracedRuntime is NewRuntime with tracing attached.
func NewTracedRuntime(g *Graph, m Machine, p Policy, bus *TraceBus, run string) (*Runtime, error) {
	return exec.NewRuntime(g, m, p, exec.WithTrace(bus, run))
}

// ExportTrace writes captured trace events to w in the named format:
// "chrome" (Perfetto-loadable trace-event JSON), "text" (one line per
// event), or "stalls" (per-step stall attribution).
func ExportTrace(w io.Writer, format string, events []TraceEvent) error {
	return trace.Export(w, format, events)
}

// Train runs steps of the graph on the machine under the named policy and
// returns the run statistics; the last step is steady state.
func Train(g *Graph, m Machine, policy string, steps int) (*RunStats, error) {
	return policyset.Run(g, m, policy, steps)
}

// CollectProfile runs Sentinel's tensor-level profiling step on the model;
// on a GPU machine it reads pinned host memory, as Sentinel's does.
func CollectProfile(g *Graph, m Machine) (*Profile, error) {
	return profile.Collect(g, m)
}

// Characterize runs the Sec. III characterization study on the model.
func Characterize(g *Graph, m Machine) (*Characterization, error) {
	return profile.Characterize(g, m)
}

// MaxBatch finds the largest batch size the named policy can train on the
// machine for the model (Table V's search).
func MaxBatch(modelName string, m Machine, policy string, limit int) (int, error) {
	if _, err := policyset.New(policy); err != nil {
		return 0, err
	}
	return gpu.MaxBatch(modelName, m, func() Policy {
		p, _ := policyset.New(policy)
		return p
	}, limit)
}

// BERTBuckets builds one BERT graph per sequence-length bucket with a
// shared parameter layout, for dynamic-shape training (Sec. IV-E).
func BERTBuckets(variant string, batch int, seqs []int) ([]*Graph, error) {
	return model.BERTBuckets(variant, batch, seqs)
}

// ControlVariants builds control-flow variants of a CIFAR ResNet with a
// shared parameter layout (Sec. IV-E).
func ControlVariants(depth, batch, variants int) ([]*Graph, error) {
	return model.ControlVariants(depth, batch, variants)
}

// TrainDynamic runs a dynamic workload: graphs are dataflow variants with
// a shared parameter layout, and schedule names the variant of each step.
// Sentinel profiles each variant the first time it appears.
func TrainDynamic(graphs []*Graph, m Machine, policy string, schedule []int) (*RunStats, error) {
	return policyset.RunDynamic(graphs, m, policy, schedule)
}

// Experiment regenerates one of the paper's tables or figures by id (see
// ExperimentIDs).
func Experiment(id string, o ExperimentOptions) (*ExperimentTable, error) {
	return experiment.Run(id, o)
}

// ExperimentIDs lists the reproducible tables and figures.
func ExperimentIDs() []string { return experiment.IDs() }

// DefaultExperimentOptions returns full-fidelity experiment settings.
func DefaultExperimentOptions() ExperimentOptions { return experiment.DefaultOptions() }

// NewExperimentCache returns an empty plan cache, safe for concurrent use.
func NewExperimentCache() *ExperimentCache { return experiment.NewCache() }
