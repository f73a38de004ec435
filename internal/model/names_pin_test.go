package model

import (
	"hash/fnv"
	"testing"
)

// TestGraphNamesPinned pins every op and tensor name of every model: one
// FNV-64a digest per model at batch 8 over the op names, then the tensor
// names, each in ID order and NUL-terminated. Names reach traces,
// exports and stall reports, so the way BuildChain spells them must not
// change a byte.
func TestGraphNamesPinned(t *testing.T) {
	want := map[string]uint64{
		"bert-base":   0x1401dae4e4559213,
		"bert-large":  0xa494ac58292b53d7,
		"dcgan":       0x55a66f72858aae4,
		"gpt2-medium": 0x2aadf923f95d9bc3,
		"gpt2-small":  0x359aad6fcacf07bb,
		"inception":   0xc48a9e5f82e9bcc,
		"lstm":        0x3e3b0abed01fbd83,
		"mobilenet":   0x14f6c8df6cd5077a,
		"resnet101":   0x8f51ebf0a5bc0c66,
		"resnet110":   0x4d8738634851a732,
		"resnet152":   0xe4fe65c57816d7e4,
		"resnet20":    0x9f1d70fc9271c8b,
		"resnet200":   0x617f994d4c0f492a,
		"resnet32":    0x853549afc9a64233,
		"resnet44":    0x5dce39eda48b08af,
		"resnet50":    0x2b4e0aba034aeab6,
		"resnet56":    0x8a586b4bf4ab185b,
		"unet":        0x1394cb54364e4da2,
		"vgg16":       0xfb8d1b5db5c5f304,
	}
	for _, name := range Names() {
		g, err := Build(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for i := range g.Ops {
			h.Write([]byte(g.Ops[i].Name))
			h.Write([]byte{0})
		}
		for _, tn := range g.Tensors {
			h.Write([]byte(tn.Name))
			h.Write([]byte{0})
		}
		got := h.Sum64()
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no pinned digest; got %#x", name, got)
			continue
		}
		if got != w {
			t.Errorf("%s: name digest %#x, pinned %#x", name, got, w)
		}
	}
	if len(want) != len(Names()) {
		t.Errorf("%d pinned digests for %d models", len(want), len(Names()))
	}
}
