package graph_test

import (
	"fmt"
	"reflect"
	"testing"

	"sentinel/internal/graph"
	"sentinel/internal/model"
	"sentinel/internal/tensor"
)

// refBuilder is the builder as it was before the log and the exact-size
// layout: one heap object per tensor and op, slices grown by append, and
// lifetimes derived op by op. TestBuilderMatchesReference holds the
// Builder to it.
type refBuilder struct {
	g        *graph.Graph
	curLayer int
	inLayer  bool
	ops      []*graph.Op
	err      error
}

func newRefBuilder(model string, batch int) *refBuilder {
	return &refBuilder{g: &graph.Graph{Model: model, Batch: batch}, curLayer: -1}
}

func (b *refBuilder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("graph builder %s: %s", b.g.Model, fmt.Sprintf(format, args...))
	}
}

func (b *refBuilder) Prealloc(name string, kind tensor.Kind, size int64) tensor.ID {
	if b.curLayer >= 0 {
		b.fail("Prealloc(%s) after first layer", name)
	}
	id := tensor.ID(len(b.g.Tensors))
	b.g.Tensors = append(b.g.Tensors, &tensor.Tensor{
		ID: id, Name: name, Kind: kind, Size: size,
		AllocLayer: 0, FreeLayer: 0, Preallocated: true,
	})
	b.g.Prealloc = append(b.g.Prealloc, id)
	return id
}

func (b *refBuilder) BeginLayer() int {
	if b.inLayer {
		b.fail("BeginLayer inside a layer")
	}
	b.curLayer++
	b.inLayer = true
	return b.curLayer
}

func (b *refBuilder) EndLayer() {
	if !b.inLayer {
		b.fail("EndLayer outside a layer")
	}
	b.inLayer = false
}

type refOpBuilder struct {
	b  *refBuilder
	op *graph.Op
}

func (b *refBuilder) Op(name string, flops float64) *refOpBuilder {
	if !b.inLayer {
		b.fail("Op(%s) outside a layer", name)
		return &refOpBuilder{b: b, op: &graph.Op{Name: name, Layer: 0, FLOPs: flops}}
	}
	op := &graph.Op{Name: name, Layer: b.curLayer, FLOPs: flops}
	b.ops = append(b.ops, op)
	return &refOpBuilder{b: b, op: op}
}

func (ob *refOpBuilder) Alloc(name string, kind tensor.Kind, size int64) tensor.ID {
	id := tensor.ID(len(ob.b.g.Tensors))
	ob.b.g.Tensors = append(ob.b.g.Tensors, &tensor.Tensor{
		ID: id, Name: name, Kind: kind, Size: size,
		AllocLayer: ob.op.Layer, FreeLayer: ob.op.Layer,
	})
	ob.op.Allocs = append(ob.op.Allocs, id)
	return id
}

func (ob *refOpBuilder) access(id tensor.ID, reads, writes int) *refOpBuilder {
	if int(id) >= len(ob.b.g.Tensors) {
		ob.b.fail("op %s: access to unknown tensor %d", ob.op.Name, id)
		return ob
	}
	for i := range ob.op.Accesses {
		if ob.op.Accesses[i].Tensor == id {
			ob.op.Accesses[i].Reads += reads
			ob.op.Accesses[i].Writes += writes
			return ob
		}
	}
	ob.op.Accesses = append(ob.op.Accesses, graph.Access{Tensor: id, Reads: reads, Writes: writes})
	return ob
}

func (ob *refOpBuilder) Read(id tensor.ID, n int) *refOpBuilder  { return ob.access(id, n, 0) }
func (ob *refOpBuilder) Write(id tensor.ID, n int) *refOpBuilder { return ob.access(id, 0, n) }

func (ob *refOpBuilder) Scratch(name string, size int64, reads int) tensor.ID {
	id := ob.Alloc(name, tensor.Scratch, size)
	ob.access(id, reads, 1)
	ob.op.Frees = append(ob.op.Frees, id)
	return id
}

func (ob *refOpBuilder) Free(ids ...tensor.ID) *refOpBuilder {
	ob.op.Frees = append(ob.op.Frees, ids...)
	return ob
}

func (b *refBuilder) Build() (*graph.Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.inLayer {
		return nil, fmt.Errorf("graph builder %s: Build inside an open layer", b.g.Model)
	}
	g := b.g
	g.NumLayers = b.curLayer + 1
	if g.NumLayers <= 0 {
		return nil, fmt.Errorf("graph builder %s: no layers", g.Model)
	}
	g.Ops = make([]graph.Op, len(b.ops))
	for i, op := range b.ops {
		g.Ops[i] = *op
	}
	lastLayer := g.NumLayers - 1
	freed := make([]bool, len(g.Tensors))
	for i := range g.Ops {
		op := &g.Ops[i]
		for _, a := range op.Accesses {
			t := g.Tensors[a.Tensor]
			n := len(t.AccessLayers)
			if n > 0 && t.AccessLayers[n-1].Layer == op.Layer {
				t.AccessLayers[n-1].Reads += a.Reads
				t.AccessLayers[n-1].Writes += a.Writes
			} else {
				t.AccessLayers = append(t.AccessLayers, tensor.LayerAccess{
					Layer: op.Layer, Reads: a.Reads, Writes: a.Writes,
				})
			}
		}
		for _, id := range op.Frees {
			g.Tensors[id].FreeLayer = op.Layer
			freed[id] = true
		}
	}
	for _, id := range g.Prealloc {
		g.Tensors[id].FreeLayer = lastLayer
		freed[id] = true
	}
	if len(g.Ops) > 0 {
		tail := &g.Ops[len(g.Ops)-1]
		for id := range g.Tensors {
			if !freed[id] {
				g.Tensors[id].FreeLayer = lastLayer
				tail.Frees = append(tail.Frees, tensor.ID(id))
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// replay feeds a captured log to the reference in an order the log
// admits: the preallocated prefix, every op layer by layer, the other
// tensors in ID order through their ops, then every access and free in
// call order.
func replay(t *testing.T, l graph.Log) (*graph.Graph, error) {
	t.Helper()
	rb := newRefBuilder(l.Model, l.Batch)
	pre := 0
	for pre < len(l.Tensors) && l.Tensors[pre].Op < 0 {
		lt := l.Tensors[pre]
		rb.Prealloc(lt.Name, lt.Kind, lt.Size)
		pre++
	}
	ops := make([]*refOpBuilder, len(l.Ops))
	next := 0
	for layer := 0; layer <= l.LastLayer; layer++ {
		rb.BeginLayer()
		for ; next < len(l.Ops) && l.Ops[next].Layer == layer; next++ {
			ops[next] = rb.Op(l.Ops[next].Name, l.Ops[next].FLOPs)
		}
		rb.EndLayer()
	}
	if next != len(l.Ops) {
		t.Fatalf("%s: op %d (layer %d) is outside layers 0..%d", l.Model, next, l.Ops[next].Layer, l.LastLayer)
	}
	for _, lt := range l.Tensors[pre:] {
		if lt.Op < 0 {
			t.Fatalf("%s: preallocated tensor %q after the first op's", l.Model, lt.Name)
		}
		ops[lt.Op].Alloc(lt.Name, lt.Kind, lt.Size)
	}
	for _, r := range l.Records {
		if r.Access {
			ops[r.Op].access(r.Tensor, r.Reads, r.Writes)
		}
		if r.Free {
			ops[r.Op].Free(r.Tensor)
		}
	}
	return rb.Build()
}

// diffGraphs reports the first field in which got differs from want,
// nil and empty slices told apart.
func diffGraphs(got, want *graph.Graph) string {
	if got.Model != want.Model || got.Batch != want.Batch || got.NumLayers != want.NumLayers || got.Variant != want.Variant {
		return fmt.Sprintf("header %s/%d/%d/%d, want %s/%d/%d/%d", got.Model, got.Batch, got.NumLayers, got.Variant,
			want.Model, want.Batch, want.NumLayers, want.Variant)
	}
	if !reflect.DeepEqual(got.Prealloc, want.Prealloc) {
		return fmt.Sprintf("Prealloc %v, want %v", got.Prealloc, want.Prealloc)
	}
	if len(got.Ops) != len(want.Ops) || (got.Ops == nil) != (want.Ops == nil) {
		return fmt.Sprintf("%d ops, want %d", len(got.Ops), len(want.Ops))
	}
	for i := range got.Ops {
		if !reflect.DeepEqual(got.Ops[i], want.Ops[i]) {
			return fmt.Sprintf("op %d: %+v, want %+v", i, got.Ops[i], want.Ops[i])
		}
	}
	if len(got.Tensors) != len(want.Tensors) || (got.Tensors == nil) != (want.Tensors == nil) {
		return fmt.Sprintf("%d tensors, want %d", len(got.Tensors), len(want.Tensors))
	}
	for i := range got.Tensors {
		if !reflect.DeepEqual(*got.Tensors[i], *want.Tensors[i]) {
			return fmt.Sprintf("tensor %d: %+v, want %+v", i, *got.Tensors[i], *want.Tensors[i])
		}
	}
	return ""
}

// appendToEvery appends to every op and tensor subslice and drops the
// result: with a capacity clipped to the length each append reallocates,
// while an unclipped one overwrites its neighbour in the shared array.
func appendToEvery(g *graph.Graph) {
	junk := tensor.ID(1 << 30)
	_ = append(g.Prealloc, junk)
	for i := range g.Ops {
		op := &g.Ops[i]
		_ = append(op.Accesses, graph.Access{Tensor: junk, Reads: -1, Writes: -1})
		_ = append(op.Allocs, junk)
		_ = append(op.Frees, junk)
	}
	for _, t := range g.Tensors {
		_ = append(t.AccessLayers, tensor.LayerAccess{Layer: -1, Reads: -1, Writes: -1})
	}
}

// TestBuilderMatchesReference builds every registered model at batches
// 1, 8 and 512 and replays each builder's log through refBuilder: every
// op and tensor field must equal the reference's, AccessLayers included,
// before and after appending to every subslice of the shared arrays.
func TestBuilderMatchesReference(t *testing.T) {
	for _, name := range model.Names() {
		for _, batch := range []int{1, 8, 512} {
			var g *graph.Graph
			var err error
			logs := graph.CaptureLogs(func() { g, err = model.Build(name, batch) })
			if err != nil {
				t.Fatalf("%s b%d: %v", name, batch, err)
			}
			if len(logs) != 1 || logs[0].Failed {
				t.Fatalf("%s b%d: captured %d logs", name, batch, len(logs))
			}
			want, err := replay(t, logs[0])
			if err != nil {
				t.Fatalf("%s b%d: reference: %v", name, batch, err)
			}
			if d := diffGraphs(g, want); d != "" {
				t.Fatalf("%s b%d: %s", name, batch, d)
			}
			appendToEvery(g)
			if d := diffGraphs(g, want); d != "" {
				t.Fatalf("%s b%d after appending to every subslice: %s", name, batch, d)
			}
		}
	}
}

// builderAPI and opAPI let one script drive both builders.
type builderAPI[O opAPI[O]] interface {
	Prealloc(name string, kind tensor.Kind, size int64) tensor.ID
	BeginLayer() int
	EndLayer()
	Op(name string, flops float64) O
	Build() (*graph.Graph, error)
}

type opAPI[O any] interface {
	Alloc(name string, kind tensor.Kind, size int64) tensor.ID
	Read(id tensor.ID, n int) O
	Write(id tensor.ID, n int) O
	Scratch(name string, size int64, reads int) tensor.ID
	Free(ids ...tensor.ID) O
}

// script is a builder call sequence written once for both builders.
type script[B builderAPI[O], O opAPI[O]] func(b B)

// scripts returns the hand-written sequences: a kept handle extended
// after later ops, repeated and zero accesses, frees of preallocated
// and never-freed tensors, ops in empty layers, and every error path.
func scripts[B builderAPI[O], O opAPI[O]]() map[string]script[B, O] {
	return map[string]script[B, O]{
		"kept-handle": func(b B) {
			w := b.Prealloc("w", tensor.Weight, 64)
			b.BeginLayer()
			first := b.Op("first", 1)
			x := first.Alloc("x", tensor.Activation, 128)
			second := b.Op("second", 2)
			second.Read(w, 1).Read(x, 2)
			first.Write(x, 1).Read(w, 3)
			first.Scratch("late", 32, 2)
			second.Free(x)
			b.EndLayer()
			b.BeginLayer()
			b.EndLayer()
			b.BeginLayer()
			third := b.Op("third", 3)
			third.Read(w, 0).Read(w, 0)
			third.Alloc("kept", tensor.Gradient, 16)
			b.EndLayer()
		},
		"freed-weight": func(b B) {
			w := b.Prealloc("w", tensor.Weight, 64)
			b.BeginLayer()
			b.Op("a", 1).Read(w, 1).Free(w)
			b.EndLayer()
		},
		"huge-counts": func(b B) {
			w := b.Prealloc("w", tensor.Weight, 64)
			b.BeginLayer()
			op := b.Op("a", 1)
			op.Read(w, 1<<40).Write(w, 1<<33).Read(w, 3)
			op.Scratch("s", 8, 1<<35)
			b.EndLayer()
		},
		"no-ops":         func(b B) { b.Prealloc("w", tensor.Weight, 8); b.BeginLayer(); b.EndLayer() },
		"stray-op":       func(b B) { b.Op("stray", 1).Read(0, 1); b.BeginLayer(); b.EndLayer() },
		"late-prealloc":  func(b B) { b.BeginLayer(); b.EndLayer(); b.Prealloc("late", tensor.Weight, 4) },
		"open-layer":     func(b B) { b.BeginLayer(); b.Op("x", 1) },
		"no-layers":      func(b B) {},
		"nested-layer":   func(b B) { b.BeginLayer(); b.BeginLayer(); b.EndLayer() },
		"unopened-layer": func(b B) { b.EndLayer() },
		"unknown-tensor": func(b B) { b.BeginLayer(); b.Op("reader", 1).Read(7, 1); b.EndLayer() },
		"zero-size":      func(b B) { b.BeginLayer(); b.Op("a", 1).Alloc("empty", tensor.Scratch, 0); b.EndLayer() },
		"negative-reads": func(b B) { b.BeginLayer(); b.Op("a", 1).Scratch("neg", 8, -3); b.EndLayer() },
		"double-free": func(b B) {
			b.BeginLayer()
			op := b.Op("a", 1)
			id := op.Alloc("t", tensor.Scratch, 64)
			op.Write(id, 1).Free(id).Free(id)
			b.EndLayer()
		},
		"use-after-free": func(b B) {
			b.BeginLayer()
			op := b.Op("a", 1)
			id := op.Alloc("t", tensor.Scratch, 64)
			op.Write(id, 1).Free(id)
			b.EndLayer()
			b.BeginLayer()
			b.Op("b", 1).Read(id, 1)
			b.EndLayer()
		},
	}
}

// TestBuilderScriptsMatchReference runs each script on both builders:
// the graphs, or the error texts, must be equal.
func TestBuilderScriptsMatchReference(t *testing.T) {
	ref := scripts[*refBuilder, *refOpBuilder]()
	for name, run := range scripts[*graph.Builder, *graph.OpBuilder]() {
		b, rb := graph.NewBuilder(name, 2), newRefBuilder(name, 2)
		run(b)
		ref[name](rb)
		g, err := b.Build()
		want, wantErr := rb.Build()
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("%s: error %v, want %v", name, err, wantErr)
			continue
		}
		if err == nil {
			if d := diffGraphs(g, want); d != "" {
				t.Errorf("%s: %s", name, d)
			}
		}
	}
}
