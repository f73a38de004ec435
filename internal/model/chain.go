// Package model is the model zoo: generators that expand DNN architectures
// (ResNet, BERT, LSTM, MobileNet, DCGAN) into training-step graphs with
// realistic tensor populations — weights, stored activations, short-lived
// intermediates, per-op scratch — and per-tensor main-memory access counts.
//
// The paper's characterization (Sec. III) emerges from these populations:
// most tensors are small and short-lived, hot tensors are few and small,
// and stored activations dominate capacity. Generators compute real shape
// arithmetic so batch scaling behaves like the real models.
package model

import (
	"fmt"
	"strconv"

	"sentinel/internal/graph"
	"sentinel/internal/tensor"
)

// F32 is the element size; models use the paper's default FP32.
const F32 = 4

// WeightSpec describes one parameter tensor of a block.
type WeightSpec struct {
	Name string
	// Size in bytes.
	Size int64
	// Hot is the number of main-memory accesses per use. Large weights
	// stream once per use (Hot=1); small per-channel parameters (biases,
	// BN scale/shift) are touched per batch slice and accumulate large
	// counts — these are the paper's hot small tensors.
	Hot int
}

// BlockSpec describes one annotated layer of a model: its parameters, the
// activation it stores for backward, intra-layer short-lived tensors, and
// its compute cost.
type BlockSpec struct {
	Name string
	// Weights, first entry is the block's main (large) parameter.
	Weights []WeightSpec
	// OutBytes is the block's output activation, stored until the
	// matching backward layer consumes it.
	OutBytes int64
	// MidBytes are additional stored intermediates (e.g. conv output
	// kept for BN backward, attention probabilities).
	MidBytes []int64
	// ShortBytes are intra-layer activations freed within the layer
	// (e.g. batch-norm output consumed by ReLU).
	ShortBytes []int64
	// ScratchBytes is the forward workspace (im2col buffers etc.),
	// allocated and freed inside the main op.
	ScratchBytes int64
	// TinyScratch is the number of sub-page temporaries per layer
	// (shape metadata, reduction buffers) — the "large number of small
	// short-lived tensors" of Observation 1.
	TinyScratch int
	// FLOPs is the forward compute; backward is charged 2x (data +
	// filter gradients), as is standard.
	FLOPs float64
	// Sweeps is the number of main-memory traversals each large-tensor
	// use costs (>=1). GEMM tiling re-reads operands that exceed the
	// cache; transformers and RNNs sit near 3-4 passes, convolutions
	// with im2col near 1-2.
	Sweeps int
}

// sweeps returns the block's traversal count, defaulting to 1.
func (b *BlockSpec) sweeps() int {
	if b.Sweeps < 1 {
		return 1
	}
	return b.Sweeps
}

// ChainSpec is a whole model as a chain of blocks.
type ChainSpec struct {
	Model string
	Batch int
	// InputBytes is the training batch tensor, allocated before the
	// step.
	InputBytes int64
	Blocks     []BlockSpec
	// LossFLOPs is the loss/head computation between forward and
	// backward.
	LossFLOPs float64
}

// tinySizes cycles deterministic sub-page scratch sizes.
var tinySizes = []int64{64, 96, 128, 192, 256, 384, 512, 768, 1024, 2048}

// tinyReads cycles deterministic access counts for tiny scratch.
var tinyReads = []int{2, 3, 2, 4, 2, 5, 3, 2, 6, 3}

// bwFLOPs is the backward-to-forward compute ratio.
const bwFLOPs = 2.0

// weightHot returns the per-use main-memory access count of a parameter
// tensor. Small weights are re-touched per batch tile during GEMM/conv
// loops and accumulate large counts (the paper's hot tensors, >100
// accesses yet only a few MB in total); large weights stream once.
func weightHot(size int64, batch int) int {
	switch {
	case size < 256<<10:
		h := 2 * batch
		if h < 64 {
			h = 64
		}
		if h > 512 {
			h = 512
		}
		return h
	case size < 2<<20:
		return hotFor(batch)
	default:
		return 1
	}
}

// BuildChain expands a chain spec into a training-step graph:
// one annotated forward layer per block, a loss layer, and one annotated
// backward layer per block in reverse order — mirroring the add_layer()
// instrumentation of Sec. VI.
func BuildChain(cs ChainSpec) (*graph.Graph, error) {
	if len(cs.Blocks) == 0 {
		return nil, fmt.Errorf("model %s: no blocks", cs.Model)
	}
	b := graph.NewBuilder(cs.Model, cs.Batch)

	input := b.Prealloc("input", tensor.Input, cs.InputBytes)
	type blockState struct {
		weights []tensor.ID
		moments [2]tensor.ID
		out     tensor.ID
		mids    []tensor.ID
		inAct   tensor.ID
	}
	states := make([]blockState, len(cs.Blocks))
	// Parameters and Adam optimizer moments are allocated before the
	// training loop. The moments are the canonical long-lived,
	// sparsely-accessed tensors: touched only in each block's update op,
	// ideal migration candidates.
	for i, blk := range cs.Blocks {
		for _, w := range blk.Weights {
			id := b.Prealloc(blk.Name+"."+w.Name, tensor.Weight, w.Size)
			states[i].weights = append(states[i].weights, id)
		}
		states[i].moments[0] = b.Prealloc(blk.Name+".adam.m", tensor.Weight, blk.Weights[0].Size)
		states[i].moments[1] = b.Prealloc(blk.Name+".adam.v", tensor.Weight, blk.Weights[0].Size)
	}

	// Forward pass: one layer per block.
	prevOut := input
	for i, blk := range cs.Blocks {
		b.BeginLayer()
		st := &states[i]
		st.inAct = prevOut

		// Main op: conv/matmul. Reads the input activation and the
		// big weight, uses a workspace, writes the first stored
		// intermediate (or the output if none).
		sw := blk.sweeps()
		main := b.Op(blk.Name+".main", blk.FLOPs)
		main.Read(st.inAct, sw)
		for wi, w := range blk.Weights {
			main.Read(st.weights[wi], w.Hot)
		}
		if blk.ScratchBytes > 0 {
			main.Scratch(blk.Name+".workspace", blk.ScratchBytes, 1)
		}
		writeTarget := tensor.ID(-1)
		for mi, sz := range blk.MidBytes {
			id := main.Alloc(blk.Name+".mid"+strconv.Itoa(mi), tensor.Activation, sz)
			st.mids = append(st.mids, id)
			main.Write(id, sw)
			if mi == 0 {
				writeTarget = id
			}
		}

		// Normalization + activation ops produce the short-lived
		// intra-layer tensors, then the block output.
		prevShort := writeTarget
		for si, sz := range blk.ShortBytes {
			op := b.Op(blk.Name+".norm"+strconv.Itoa(si), float64(sz))
			if prevShort >= 0 {
				op.Read(prevShort, sw)
			}
			// Small per-channel parameters are re-read here.
			for wi := 1; wi < len(blk.Weights); wi++ {
				op.Read(st.weights[wi], blk.Weights[wi].Hot)
			}
			id := op.Alloc(blk.Name+".short"+strconv.Itoa(si), tensor.Activation, sz)
			op.Write(id, sw)
			if prevShort >= 0 && si > 0 {
				op.Free(prevShort)
			}
			prevShort = id
		}

		// Shape-inference and kernel-launch bookkeeping temporaries.
		for ti := 0; ti < blk.TinyScratch/2; ti++ {
			main.Scratch(blk.Name+".mtmp"+strconv.Itoa(ti),
				tinySizes[(i+ti+1)%len(tinySizes)], tinyReads[(i+ti+2)%len(tinyReads)])
		}

		act := b.Op(blk.Name+".act", float64(blk.OutBytes))
		if prevShort >= 0 {
			act.Read(prevShort, sw)
		} else {
			act.Read(st.inAct, sw)
		}
		st.out = act.Alloc(blk.Name+".out", tensor.Activation, blk.OutBytes)
		act.Write(st.out, sw)
		// Free the last short-lived chain member (mid tensors stay for
		// backward). Note mid0 is freed in backward, shorts here.
		if prevShort >= 0 && len(blk.ShortBytes) > 0 {
			act.Free(prevShort)
		}
		for ti := 0; ti < blk.TinyScratch; ti++ {
			act.Scratch(blk.Name+".tmp"+strconv.Itoa(ti),
				tinySizes[(i+ti)%len(tinySizes)], tinyReads[(i+ti)%len(tinyReads)])
		}
		// A few allocations are never touched in main memory at all
		// (cache-resident descriptors) — the paper's zero-access
		// population.
		for ti := 0; ti < 2; ti++ {
			dead := act.Alloc(blk.Name+".dead"+strconv.Itoa(ti), tensor.Scratch,
				tinySizes[(i+ti)%len(tinySizes)])
			act.Free(dead)
		}
		b.EndLayer()
		prevOut = st.out
	}

	// Loss layer.
	b.BeginLayer()
	lastOut := states[len(cs.Blocks)-1].out
	lossOp := b.Op("loss", cs.LossFLOPs)
	lossOp.Read(lastOut, 1)
	lossVal := lossOp.Scratch("loss.value", 256, 3)
	_ = lossVal
	gradSize := cs.Blocks[len(cs.Blocks)-1].OutBytes
	dY := lossOp.Alloc("loss.grad", tensor.Gradient, gradSize)
	lossOp.Write(dY, 1)
	for ti := 0; ti < 4; ti++ {
		lossOp.Scratch("loss.tmp"+strconv.Itoa(ti), tinySizes[ti], tinyReads[ti])
	}
	b.EndLayer()

	// Backward pass: one layer per block, reverse order.
	for i := len(cs.Blocks) - 1; i >= 0; i-- {
		blk := cs.Blocks[i]
		st := &states[i]
		b.BeginLayer()

		// Activation backward: uses the stored output.
		sw := blk.sweeps()
		actB := b.Op(blk.Name+".act_bwd", float64(blk.OutBytes))
		actB.Read(dY, sw)
		actB.Read(st.out, sw)
		dMid := actB.Alloc(blk.Name+".dmid", tensor.Gradient, blk.OutBytes)
		actB.Write(dMid, sw)
		actB.Free(st.out)
		for ti := 0; ti < blk.TinyScratch/2; ti++ {
			actB.Scratch(blk.Name+".abtmp"+strconv.Itoa(ti),
				tinySizes[(i+ti+4)%len(tinySizes)], tinyReads[(i+ti+1)%len(tinyReads)])
		}

		// Norm backward: uses stored intermediates, produces small
		// parameter gradients.
		if len(st.mids) > 0 {
			normB := b.Op(blk.Name+".norm_bwd", float64(blk.OutBytes))
			normB.Read(dMid, sw)
			for _, mid := range st.mids {
				normB.Read(mid, sw)
			}
			for wi := 1; wi < len(blk.Weights); wi++ {
				normB.Read(st.weights[wi], blk.Weights[wi].Hot)
				normB.Scratch(blk.Name+".dw"+strconv.Itoa(wi), blk.Weights[wi].Size, 2)
			}
			normB.Free(st.mids...)
		}

		// Gradient w.r.t. data: feeds the next backward layer.
		var dX tensor.ID = -1
		dataB := b.Op(blk.Name+".grad_data", blk.FLOPs*bwFLOPs/2)
		dataB.Read(dMid, sw)
		dataB.Read(st.weights[0], blk.Weights[0].Hot)
		if blk.ScratchBytes > 0 {
			dataB.Scratch(blk.Name+".bwd_ws", blk.ScratchBytes, 1)
		}
		if i > 0 {
			dX = dataB.Alloc(blk.Name+".dx", tensor.Gradient, inActBytes(cs, i))
			dataB.Write(dX, sw)
		}

		// Gradient w.r.t. weights, then the optimizer update.
		filtB := b.Op(blk.Name+".grad_filter", blk.FLOPs*bwFLOPs/2)
		filtB.Read(dMid, sw)
		if st.inAct != input {
			filtB.Read(st.inAct, sw)
		} else {
			filtB.Read(input, sw)
		}
		dW := filtB.Alloc(blk.Name+".dw", tensor.Gradient, blk.Weights[0].Size)
		filtB.Write(dW, 1)
		filtB.Free(dMid)

		upd := b.Op(blk.Name+".update", float64(blk.Weights[0].Size)*4)
		upd.Read(dW, 1)
		upd.Read(st.weights[0], 1).Write(st.weights[0], 1)
		upd.Read(st.moments[0], 1).Write(st.moments[0], 1)
		upd.Read(st.moments[1], 1).Write(st.moments[1], 1)
		upd.Free(dW)
		upd.Free(dY)
		for ti := 0; ti < blk.TinyScratch; ti++ {
			upd.Scratch(blk.Name+".btmp"+strconv.Itoa(ti),
				tinySizes[(i+ti+3)%len(tinySizes)], tinyReads[(i+ti+5)%len(tinyReads)])
		}
		b.EndLayer()
		if dX >= 0 {
			dY = dX
		}
	}

	return b.Build()
}

// inActBytes returns the size of block i's input activation: the previous
// block's output, or the model input for the first block.
func inActBytes(cs ChainSpec, i int) int64 {
	if i == 0 {
		return cs.InputBytes
	}
	return cs.Blocks[i-1].OutBytes
}
