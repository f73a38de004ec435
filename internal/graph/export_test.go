package graph

import "sentinel/internal/tensor"

// Log is a Builder's log as Build found it, in exported form so the
// external reference test can replay it.
type Log struct {
	Model     string
	Batch     int
	LastLayer int
	Failed    bool
	Tensors   []LoggedTensor
	Ops       []LoggedOp
	Records   []LoggedRecord // in call order
}

// LoggedTensor is one tensor record; Op is -1 for a preallocated tensor.
type LoggedTensor struct {
	Name string
	Kind tensor.Kind
	Size int64
	Op   int
}

// LoggedOp is one op record.
type LoggedOp struct {
	Name  string
	Layer int
	FLOPs float64
}

// LoggedRecord is one access or free; Scratch logs one that is both.
type LoggedRecord struct {
	Op            int
	Tensor        tensor.ID
	Access, Free  bool
	Reads, Writes int
}

// CaptureLogs runs f and returns the log of every Builder that reaches
// Build during it, copied before Build reads it.
func CaptureLogs(f func()) []Log {
	var logs []Log
	testHookBuild = func(b *Builder) {
		names := b.joinNames()
		l := Log{Model: b.model, Batch: b.batch, LastLayer: b.curLayer, Failed: b.err != nil || b.inLayer}
		for i := int32(0); i < b.tensors.n; i++ {
			r := b.tensors.at(i)
			l.Tensors = append(l.Tensors, LoggedTensor{
				Name: names[r.name : r.name+r.nameLen], Kind: r.kind, Size: r.size, Op: int(r.op),
			})
		}
		for i := int32(0); i < b.ops.n; i++ {
			op := b.ops.at(i)
			l.Ops = append(l.Ops, LoggedOp{Name: names[op.name : op.name+op.nameLen], Layer: op.layer, FLOPs: op.flops})
		}
		// Only the op chains know each record's op; the records
		// themselves are in call order.
		opOf := make([]int, b.log.n)
		for o := int32(0); o < b.ops.n; o++ {
			for r := b.ops.at(o).head; r >= 0; r = b.log.at(r).next {
				opOf[r] = int(o)
			}
		}
		for i := int32(0); i < b.log.n; i++ {
			r := b.log.at(i)
			l.Records = append(l.Records, LoggedRecord{
				Op: opOf[i], Tensor: tensor.ID(r.tensor),
				Access: r.kind&accessRec != 0, Free: r.kind&freeRec != 0,
				Reads: int(r.reads), Writes: int(r.writes),
			})
		}
		logs = append(logs, l)
	}
	defer func() { testHookBuild = nil }()
	f()
	return logs
}
