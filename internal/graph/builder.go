package graph

import (
	"fmt"
	"math"
	"strings"

	"sentinel/internal/tensor"
)

// Builder constructs a Graph incrementally, the way a framework runtime
// observes a step: ops execute in order, allocating outputs and scratch,
// and tensors are freed after their last consumer. The builder derives each
// tensor's lifetime and per-layer access counts from the op stream, so
// tensor metadata is consistent with the schedule by construction.
//
// Builder calls only append to a log kept in fixed-size blocks: one record
// per tensor, one per op (the OpBuilder handles, which stay valid and may
// be extended after later ops are added), and one per access or free,
// chained to its op. Build groups the log by op and lays the graph out in
// a few exact-size arrays: the tensors behind Graph.Tensors, their
// AccessLayers, the ops' Accesses, and one []tensor.ID holding Prealloc and
// every op's Allocs and Frees. Each op and tensor holds a capacity-clipped
// subslice, so appending to one reallocates it instead of overwriting a
// neighbour. Every tensor and op name is a substring of one string per
// graph, which stays in memory as long as any name taken from the graph
// does (a profile's TensorStat.Name, say), even after the graph itself is
// dropped; likewise one *tensor.Tensor keeps all of its graph's tensors.
type Builder struct {
	model    string
	batch    int
	curLayer int
	inLayer  bool
	tensors  blocks[tensorRec]
	ops      blocks[OpBuilder]
	log      blocks[record]
	// names holds every tensor and op name back to back, in nameBlock-byte
	// blocks; nameLen is the byte count so far.
	names    [][]byte
	nameLen  int
	prealloc int
	err      error
}

// tensorRec is the log's record of one tensor, indexed by its ID.
type tensorRec struct {
	size int64
	kind tensor.Kind
	// name and nameLen locate the tensor's name in the name log.
	name, nameLen int32
	// op is the log index of the allocating op, -1 for a preallocated
	// tensor.
	op int32
}

// Record kinds: Scratch logs one record that is both an access and a free.
const (
	accessRec uint8 = 1 << iota
	freeRec
)

// record is one logged access or free of a tensor by an op. An op's
// records form a chain through next (-1 ends it), in call order.
type record struct {
	tensor, next  int32
	reads, writes int32
	kind          uint8
}

// blockBits sizes the log's blocks at 256 elements.
const (
	blockBits = 8
	blockMask = 1<<blockBits - 1
	nameBlock = 4096
)

// blocks is an append-only sequence in fixed-size blocks: it never moves
// or copies an element as it grows, so pointers into it stay valid.
type blocks[T any] struct {
	b [][]T
	n int32
}

func (s *blocks[T]) at(i int32) *T { return &s.b[i>>blockBits][i&blockMask] }

// push appends v and returns its index.
func (s *blocks[T]) push(v T) int32 {
	i := s.n
	if i&blockMask == 0 {
		s.b = append(s.b, make([]T, 1<<blockBits))
	}
	*s.at(i) = v
	s.n++
	return i
}

// NewBuilder starts a graph for the given model and batch size.
func NewBuilder(model string, batch int) *Builder {
	return &Builder{model: model, batch: batch, curLayer: -1}
}

// fail records the first error. Callers pass names through strings.Clone:
// handing a caller's name to fmt would make every name escape to the heap.
func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("graph builder %s: %s", b.model, fmt.Sprintf(format, args...))
	}
}

// addName appends s to the name log and returns its offset there. It
// copies s, so a caller's concatenated name need not live on the heap.
func (b *Builder) addName(s string) int32 {
	off := b.nameLen
	for len(s) > 0 {
		if b.nameLen%nameBlock == 0 {
			b.names = append(b.names, make([]byte, nameBlock))
		}
		n := copy(b.names[len(b.names)-1][b.nameLen%nameBlock:], s)
		s = s[n:]
		b.nameLen += n
	}
	return int32(off)
}

// joinNames returns the name log as one string.
func (b *Builder) joinNames() string {
	var sb strings.Builder
	sb.Grow(b.nameLen)
	for i, blk := range b.names {
		if rest := b.nameLen - i*nameBlock; rest < nameBlock {
			blk = blk[:rest]
		}
		sb.Write(blk)
	}
	return sb.String()
}

func (b *Builder) addTensor(name string, kind tensor.Kind, size int64, op int32) tensor.ID {
	return tensor.ID(b.tensors.push(tensorRec{
		size: size, kind: kind, name: b.addName(name), nameLen: int32(len(name)), op: op,
	}))
}

// Prealloc registers a tensor allocated before the training loop (weights,
// inputs). Must be called before the first layer.
func (b *Builder) Prealloc(name string, kind tensor.Kind, size int64) tensor.ID {
	if b.curLayer >= 0 {
		b.fail("Prealloc(%s) after first layer", strings.Clone(name))
	}
	b.prealloc++
	return b.addTensor(name, kind, size, -1)
}

// BeginLayer opens the next layer; corresponds to the region between two
// add_layer() annotations in the instrumented model.
func (b *Builder) BeginLayer() int {
	if b.inLayer {
		b.fail("BeginLayer inside a layer")
	}
	b.curLayer++
	b.inLayer = true
	return b.curLayer
}

// EndLayer closes the current layer.
func (b *Builder) EndLayer() {
	if !b.inLayer {
		b.fail("EndLayer outside a layer")
	}
	b.inLayer = false
}

// OpBuilder accumulates one op's accesses.
type OpBuilder struct {
	b *Builder
	// idx is the op's index in the op log, -1 for an op opened outside a
	// layer (which Build never reaches: that is an error).
	idx           int32
	name, nameLen int32
	layer         int
	flops         float64
	// head and tail bound the op's chain of access and free records.
	head, tail int32
}

// Op appends an operation to the current layer.
func (b *Builder) Op(name string, flops float64) *OpBuilder {
	op := OpBuilder{
		b: b, idx: b.ops.n, name: b.addName(name), nameLen: int32(len(name)),
		layer: b.curLayer, flops: flops, head: -1, tail: -1,
	}
	if !b.inLayer {
		b.fail("Op(%s) outside a layer", strings.Clone(name))
		// Keep going with a detached op so callers can chain safely;
		// Build will return the error.
		detached := op
		detached.idx, detached.layer = -1, 0
		return &detached
	}
	return b.ops.at(b.ops.push(op))
}

// Alloc creates a tensor whose lifetime begins at this op.
func (ob *OpBuilder) Alloc(name string, kind tensor.Kind, size int64) tensor.ID {
	return ob.b.addTensor(name, kind, size, ob.idx)
}

// add logs a record on the op's chain. Counts are logged as int32: one
// outside that range takes several records, which Build sums like any
// repeated access.
func (ob *OpBuilder) add(kind uint8, id tensor.ID, reads, writes int) {
	for {
		r, w := clamp32(reads), clamp32(writes)
		i := ob.b.log.push(record{tensor: int32(id), next: -1, reads: r, writes: w, kind: kind})
		if ob.tail < 0 {
			ob.head = i
		} else {
			ob.b.log.at(ob.tail).next = i
		}
		ob.tail = i
		reads, writes = reads-int(r), writes-int(w)
		if reads == 0 && writes == 0 {
			return
		}
		kind = accessRec
	}
}

func clamp32(n int) int32 { return int32(min(max(n, math.MinInt32), math.MaxInt32)) }

func (ob *OpBuilder) access(id tensor.ID, reads, writes int) *OpBuilder {
	if int(id) >= int(ob.b.tensors.n) {
		ob.b.fail("op %s: access to unknown tensor %d", ob.b.joinNames()[ob.name:ob.name+ob.nameLen], id)
		return ob
	}
	ob.add(accessRec, id, reads, writes)
	return ob
}

// Read records n main-memory reads of the tensor by this op.
func (ob *OpBuilder) Read(id tensor.ID, n int) *OpBuilder { return ob.access(id, n, 0) }

// Write records n main-memory writes of the tensor by this op.
func (ob *OpBuilder) Write(id tensor.ID, n int) *OpBuilder { return ob.access(id, 0, n) }

// Scratch allocates a temporary written once and read `reads` times by this
// op, then freed when the op completes — the padding/transpose temporaries
// of Sec. III-B.
func (ob *OpBuilder) Scratch(name string, size int64, reads int) tensor.ID {
	id := ob.Alloc(name, tensor.Scratch, size)
	ob.add(accessRec|freeRec, id, reads, 1)
	return id
}

// Free ends a tensor's lifetime after this op.
func (ob *OpBuilder) Free(ids ...tensor.ID) *OpBuilder {
	for _, id := range ids {
		ob.add(freeRec, id, 0, 0)
	}
	return ob
}

// clip returns s[lo:hi] with its capacity clipped to its length, or nil
// when it is empty.
func clip[T any](s []T, lo, hi int) []T {
	if lo == hi {
		return nil
	}
	return s[lo:hi:hi]
}

// chain returns the log record at r, or nil at the end of a chain.
func (b *Builder) chain(r int32) *record {
	if r < 0 {
		return nil
	}
	return b.log.at(r)
}

// Build finalizes the graph: derives tensor lifetimes and per-layer access
// counts from the op stream, frees preallocated tensors at the end, and
// validates the result.
func (b *Builder) Build() (*Graph, error) {
	if testHookBuild != nil {
		testHookBuild(b)
	}
	if b.err != nil {
		return nil, b.err
	}
	if b.inLayer {
		return nil, fmt.Errorf("graph builder %s: Build inside an open layer", b.model)
	}
	g := &Graph{Model: b.model, Batch: b.batch, NumLayers: b.curLayer + 1}
	if g.NumLayers <= 0 {
		return nil, fmt.Errorf("graph builder %s: no layers", g.Model)
	}
	lastLayer := g.NumLayers - 1
	names := b.joinNames()
	nt, no := int(b.tensors.n), int(b.ops.n)

	// opCount counts an op's accessed tensors, allocs and frees, then
	// serves as its write cursors.
	type opCount struct{ accs, allocs, frees int }
	opc := make([]opCount, no)
	type tensorWork struct {
		// op is the last op seen accessing the tensor, acc that op's
		// Accesses slot for it.
		op, acc int32
		// layer is the last layer seen accessing the tensor; la counts
		// its AccessLayers, then is the next one to fill.
		layer, la int32
		freed     bool
	}
	work := make([]tensorWork, nt)
	tensors := make([]tensor.Tensor, nt)
	for i := range tensors {
		r := b.tensors.at(int32(i))
		tensors[i] = tensor.Tensor{
			ID: tensor.ID(i), Name: names[r.name : r.name+r.nameLen], Kind: r.kind, Size: r.size,
			Preallocated: r.op < 0,
		}
		if r.op >= 0 {
			tensors[i].AllocLayer = b.ops.at(r.op).layer
			opc[r.op].allocs++
		}
		work[i] = tensorWork{op: -1, layer: -1, freed: r.op < 0}
	}

	// Count each op's distinct tensors and each tensor's distinct
	// layers (op layers never decrease), and apply the frees.
	nLA, nAcc, nIDs := 0, 0, b.prealloc
	for o := range opc {
		op, c := b.ops.at(int32(o)), &opc[o]
		for rec := b.chain(op.head); rec != nil; rec = b.chain(rec.next) {
			if w := &work[rec.tensor]; rec.kind&accessRec != 0 && w.op != int32(o) {
				w.op = int32(o)
				c.accs++
				if w.layer != int32(op.layer) {
					w.layer = int32(op.layer)
					w.la++
					nLA++
				}
			}
			if rec.kind&freeRec != 0 {
				tensors[rec.tensor].FreeLayer = op.layer
				work[rec.tensor].freed = true
				c.frees++
			}
		}
		nAcc += c.accs
		nIDs += c.allocs + c.frees
	}
	for i := range tensors {
		switch {
		case tensors[i].Preallocated:
			// Preallocated tensors span the whole step.
			tensors[i].FreeLayer = lastLayer
		case !work[i].freed && no > 0:
			// Any mid-training tensor never explicitly freed dies at
			// the end of the step (the framework frees step-local
			// tensors at step end).
			tensors[i].FreeLayer = lastLayer
			opc[no-1].frees++
			nIDs++
		}
	}

	// Lay the graph out in exact-size arrays.
	las := make([]tensor.LayerAccess, nLA)
	accs := make([]Access, nAcc)
	ids := make([]tensor.ID, nIDs)
	if nt > 0 {
		g.Tensors = make([]*tensor.Tensor, nt)
	}
	la := 0
	for i := range tensors {
		w := &work[i]
		tensors[i].AccessLayers = clip(las, la, la+int(w.la))
		w.op, w.layer, w.la = -1, -1, int32(la)
		la += len(tensors[i].AccessLayers)
		g.Tensors[i] = &tensors[i]
	}
	g.Prealloc = clip(ids, 0, b.prealloc)
	g.Ops = make([]Op, no)
	next, acc := b.prealloc, 0
	for o := range g.Ops {
		op, c := b.ops.at(int32(o)), &opc[o]
		g.Ops[o] = Op{
			Name: names[op.name : op.name+op.nameLen], Layer: op.layer, FLOPs: op.flops,
			Accesses: clip(accs, acc, acc+c.accs),
			Allocs:   clip(ids, next, next+c.allocs),
			Frees:    clip(ids, next+c.allocs, next+c.allocs+c.frees),
		}
		acc += c.accs
		next += c.allocs + c.frees
		*c = opCount{}
	}

	// Fill them: allocs in ID order, then each op's records, then the
	// implicit frees after the tail op's own.
	pre := 0
	for i := range tensors {
		if r := b.tensors.at(int32(i)); r.op < 0 {
			ids[pre] = tensor.ID(i)
			pre++
		} else {
			g.Ops[r.op].Allocs[opc[r.op].allocs] = tensor.ID(i)
			opc[r.op].allocs++
		}
	}
	for o := range g.Ops {
		op, c := &g.Ops[o], &opc[o]
		for rec := b.chain(b.ops.at(int32(o)).head); rec != nil; rec = b.chain(rec.next) {
			id := tensor.ID(rec.tensor)
			if rec.kind&accessRec != 0 {
				w := &work[id]
				if w.op != int32(o) {
					w.op, w.acc = int32(o), int32(c.accs)
					op.Accesses[c.accs].Tensor = id
					c.accs++
				}
				if w.layer != int32(op.Layer) {
					w.layer = int32(op.Layer)
					las[w.la].Layer = op.Layer
					w.la++
				}
				a, l := &op.Accesses[w.acc], &las[w.la-1]
				a.Reads += int(rec.reads)
				a.Writes += int(rec.writes)
				l.Reads += int(rec.reads)
				l.Writes += int(rec.writes)
			}
			if rec.kind&freeRec != 0 {
				op.Frees[c.frees] = id
				c.frees++
			}
		}
	}
	if no > 0 {
		tail, c := &g.Ops[no-1], &opc[no-1]
		for i := range work {
			if !work[i].freed {
				tail.Frees[c.frees] = tensor.ID(i)
				c.frees++
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// testHookBuild, when set, sees every Builder as Build starts.
var testHookBuild func(*Builder)
