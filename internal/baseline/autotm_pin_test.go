package baseline

import (
	"hash/fnv"
	"testing"

	"sentinel/internal/exec"
	"sentinel/internal/memsys"
	"sentinel/internal/model"
)

// xDigest is an FNV-64a digest of AutoTM's placement, two bytes per
// tensor: its fast and its offload choice. That is one byte per variable
// of the ILP that gave every tensor an offload variable, so the pinned
// digests predate the dropped variables of tensors without an idle gap.
func xDigest(p *AutoTM) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 2*len(p.planFast))
	for id := range p.planFast {
		if p.planFast[id] {
			buf[2*id] = 1
		}
		if p.planOffload[id] {
			buf[2*id+1] = 1
		}
	}
	h.Write(buf)
	return h.Sum64()
}

// TestAutoTMSearchPinned pins AutoTM's placement ILP node for node: the
// objective, the nodes the budget-limited branch and bound visited,
// whether it proved optimality, and a digest of the chosen assignment.
// The goldens only see the tables this search feeds; a change to the
// solver's data layout must leave all of these identical.
func TestAutoTMSearchPinned(t *testing.T) {
	cases := []struct {
		name    string
		model   string
		batch   int
		spec    func(peak int64) memsys.Spec
		value   float64
		nodes   int
		optimal bool
		digest  uint64
	}{
		{"resnet200-gpu-64", "resnet200", 64,
			func(int64) memsys.Spec { return memsys.GPUHM() },
			4.837222272153181, 104570, false, 0x41b92833aa584237},
		{"resnet200-gpu-512", "resnet200", 512,
			func(int64) memsys.Spec { return memsys.GPUHM() },
			33.36345595722445, 104675, false, 0x6ae7bebaa3d71bd2},
		{"resnet32-optane-20pct", "resnet32", 128,
			func(peak int64) memsys.Spec { return memsys.OptaneHM().WithFastSize(peak / 5) },
			0.4697656997933346, 101216, false, 0xaa72f89fed95df9e},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g, err := model.Build(c.model, c.batch)
			if err != nil {
				t.Fatal(err)
			}
			p := NewAutoTM()
			if _, err := exec.NewRuntime(g, c.spec(g.PeakMemory()), p); err != nil {
				t.Fatal(err)
			}
			r := p.result
			if r.Value != c.value || r.Nodes != c.nodes || r.Optimal != c.optimal || xDigest(p) != c.digest {
				t.Fatalf("ILP search moved: value %v nodes %d optimal %v digest %#x; pinned %v %d %v %#x",
					r.Value, r.Nodes, r.Optimal, xDigest(p), c.value, c.nodes, c.optimal, c.digest)
			}
		})
	}
}
