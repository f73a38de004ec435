package model

import (
	"fmt"
	"slices"
	"sync"

	"sentinel/internal/graph"
)

// BuildFunc constructs a model's training-step graph at a batch size.
type BuildFunc func(batch int) (*graph.Graph, error)

// registry maps model names to builders.
var registry = map[string]BuildFunc{
	"resnet20":    func(b int) (*graph.Graph, error) { return ResNet(20, b) },
	"resnet44":    func(b int) (*graph.Graph, error) { return ResNet(44, b) },
	"resnet56":    func(b int) (*graph.Graph, error) { return ResNet(56, b) },
	"resnet110":   func(b int) (*graph.Graph, error) { return ResNet(110, b) },
	"resnet32":    func(b int) (*graph.Graph, error) { return ResNet(32, b) },
	"resnet50":    func(b int) (*graph.Graph, error) { return ResNet(50, b) },
	"resnet101":   func(b int) (*graph.Graph, error) { return ResNet(101, b) },
	"resnet152":   func(b int) (*graph.Graph, error) { return ResNet(152, b) },
	"resnet200":   func(b int) (*graph.Graph, error) { return ResNet(200, b) },
	"bert-base":   func(b int) (*graph.Graph, error) { return BERT("base", b) },
	"bert-large":  func(b int) (*graph.Graph, error) { return BERT("large", b) },
	"lstm":        LSTM,
	"mobilenet":   MobileNet,
	"dcgan":       DCGAN,
	"vgg16":       VGG16,
	"inception":   Inception,
	"unet":        UNet,
	"gpt2-small":  func(b int) (*graph.Graph, error) { return GPT2("small", b) },
	"gpt2-medium": func(b int) (*graph.Graph, error) { return GPT2("medium", b) },
}

// Build constructs the named model at the given batch size.
func Build(name string, batch int) (*graph.Graph, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("model: unknown model %q (known: %v)", name, Names())
	}
	return f(batch)
}

// sharedGraphs memoizes BuildShared results per (name, batch).
var sharedGraphs sync.Map

type sharedKey struct {
	name  string
	batch int
}

// BuildShared returns a process-wide shared graph for the named model and
// batch size. Graphs are immutable once built — the runtime, policies, and
// profiler only read them — so sweeps that execute the same model at many
// capacity points can share one instance instead of rebuilding the graph
// per cell (graph construction was a third of sweep CPU time and most of
// its allocations). Callers must not mutate the returned graph; use Build
// for a private copy.
func BuildShared(name string, batch int) (*graph.Graph, error) {
	key := sharedKey{name, batch}
	if g, ok := sharedGraphs.Load(key); ok {
		return g.(*graph.Graph), nil
	}
	g, err := Build(name, batch)
	if err != nil {
		return nil, err
	}
	// Two racing builders produce identical graphs; first Store wins so
	// every caller afterwards shares one instance.
	actual, _ := sharedGraphs.LoadOrStore(key, g)
	return actual.(*graph.Graph), nil
}

// names is the registered model names, sorted once.
var names = func() []string {
	ns := make([]string, 0, len(registry))
	for n := range registry {
		ns = append(ns, n)
	}
	slices.Sort(ns)
	return ns
}()

// Names lists registered model names, sorted. The slice is the caller's.
func Names() []string { return slices.Clone(names) }

// Known reports whether name is a registered model.
func Known(name string) bool {
	_, ok := registry[name]
	return ok
}

// EvalModel pairs a model with the paper's small/large batch sizes
// (Table III uses a small and a large batch per model).
type EvalModel struct {
	Name       string
	SmallBatch int
	LargeBatch int
}

// EvalSet returns the paper's five evaluation models with their small and
// large batch configurations.
func EvalSet() []EvalModel {
	return []EvalModel{
		{Name: "resnet32", SmallBatch: 128, LargeBatch: 1024},
		{Name: "bert-base", SmallBatch: 16, LargeBatch: 64},
		{Name: "lstm", SmallBatch: 20, LargeBatch: 80},
		{Name: "mobilenet", SmallBatch: 64, LargeBatch: 512},
		{Name: "dcgan", SmallBatch: 128, LargeBatch: 1024},
	}
}

// GPUEvalSet returns the GPU experiments' models (the paper uses
// ResNet-200 and BERT-large on the V100 alongside LSTM, DCGAN, and
// MobileNet) with the three batch sizes of Figure 12.
type GPUEvalModel struct {
	Name    string
	Batches [3]int
}

// GPUEvalSet lists the GPU-side evaluation models and batch sizes; the
// largest batch of each model exceeds the V100's 16 GiB so tensor
// migration is mandatory, as in Figure 12.
func GPUEvalSet() []GPUEvalModel {
	return []GPUEvalModel{
		{Name: "resnet200", Batches: [3]int{96, 128, 192}},
		{Name: "bert-large", Batches: [3]int{32, 48, 64}},
		{Name: "lstm", Batches: [3]int{3072, 4096, 6144}},
		{Name: "dcgan", Batches: [3]int{2048, 3072, 4096}},
		{Name: "mobilenet", Batches: [3]int{512, 768, 1024}},
	}
}
