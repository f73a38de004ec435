package gpu

import (
	"fmt"
	"strings"
	"testing"

	"sentinel/internal/baseline"
	"sentinel/internal/memsys"
	"sentinel/internal/model"
)

// TestFitsMonotoneDenseLadder probes every batch from 20 to 30 of
// bert-large under fast-only, around its pinned Table V maximum of 24,
// with the predicate the max-batch search bisects on. The verdicts must
// switch once, from fitting to not, at the pinned maximum.
func TestFitsMonotoneDenseLadder(t *testing.T) {
	const pinned = 24
	var verdicts []string
	for batch := 20; batch <= 30; batch++ {
		g, err := model.Build("bert-large", batch)
		if err != nil {
			t.Fatal(err)
		}
		ok, err := fits(g, memsys.GPUHM(), baseline.NewFastOnly())
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		mark := "x"
		if ok {
			mark = "+"
		}
		verdicts = append(verdicts, fmt.Sprintf("%d%s", batch, mark))
		if ok != (batch <= pinned) {
			t.Errorf("batch %d: fits=%v, want fits exactly up to %d", batch, ok, pinned)
		}
	}
	t.Logf("bert-large fast-only: %s", strings.Join(verdicts, " "))
}
