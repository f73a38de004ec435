// Package gpu hosts the maximum-batch-size search of Table V: the largest
// batch at which a model trains on GPU-based heterogeneous memory (GPU
// global memory the fast tier, host memory the slow tier) under a policy.
// Sentinel itself needs no GPU variant; only its profiling step differs on
// a GPU (Sec. V), and profile.Recorder and core.Sentinel carry that
// difference.
package gpu

import (
	"errors"

	"sentinel/internal/exec"
	"sentinel/internal/graph"
	"sentinel/internal/memsys"
	"sentinel/internal/model"
)

// BatchLimit is the ceiling of the max-batch search and the largest batch
// any experiment simulates. Every model builds at it without overflowing
// a tensor size; far larger batches would overflow int64 byte counts.
const BatchLimit = 1 << 14

// MaxBatch finds the largest batch size up to limit (probing limit, then
// bisecting below it) at which the model trains two steps under the
// policy without running out of GPU memory. It is Lockstep's one-policy
// case, with the probes run one after another.
func MaxBatch(modelName string, spec memsys.Spec, factory func() exec.Policy, limit int) (int, error) {
	build := func(batch int) (*graph.Graph, error) { return model.Build(modelName, batch) }
	maxes, err := Lockstep(build, spec, []func() exec.Policy{factory}, limit, sequential)
	if err != nil {
		return 0, err
	}
	return maxes[0], nil
}

// Probe is one trial of a lockstep round: search Search tries Batch.
type Probe struct{ Search, Batch int }

// RoundRunner runs one lockstep round: fit(i) trials probes[i]. It
// returns the verdicts in probe order and may run the probes
// concurrently, since they only read the round's graphs.
type RoundRunner func(probes []Probe, fit func(i int) (bool, error)) ([]bool, error)

// Lockstep runs one max-batch search per policy factory and advances them
// round by round. Each round builds the graph of every distinct batch the
// searches want next once, runs all of the round's probes on those shared
// graphs through run, and drops the graphs when the round ends. Every
// search makes the probes it would make alone, in the same order. It
// returns each search's largest fitting batch, 0 when batch 1 does not
// fit; a limit <= 0 means BatchLimit.
func Lockstep(build model.BuildFunc, spec memsys.Spec, factories []func() exec.Policy, limit int, run RoundRunner) ([]int, error) {
	if limit <= 0 {
		limit = BatchLimit
	}
	searches := make([]search, len(factories))
	for {
		var probes []Probe
		graphs := map[int]*graph.Graph{}
		for i := range searches {
			batch, ok := searches[i].next(limit)
			if !ok {
				continue
			}
			if graphs[batch] == nil {
				g, err := build(batch)
				if err != nil {
					return nil, err
				}
				graphs[batch] = g
			}
			probes = append(probes, Probe{Search: i, Batch: batch})
		}
		if len(probes) == 0 {
			break
		}
		verdicts, err := run(probes, func(i int) (bool, error) {
			p := probes[i]
			return fits(graphs[p.Batch], spec, factories[p.Search]())
		})
		if err != nil {
			return nil, err
		}
		for i, p := range probes {
			searches[p.Search].record(p.Batch, verdicts[i])
		}
	}
	maxes := make([]int, len(searches))
	for i, s := range searches {
		maxes[i] = s.lo
	}
	return maxes, nil
}

// search is one top-down max-batch search as a state machine: next names
// the batch to probe, record takes its verdict. It probes limit first and,
// when limit does not fit, bisects between the largest batch that fit and
// the smallest that did not. Like any bisection it assumes that fitting is
// monotone in batch; most of its probes are then quick out-of-memory
// failures rather than full training steps far below the answer.
type search struct {
	lo int // largest batch known to fit; 0 until one does
	hi int // smallest batch known not to fit; 0 until one does not
}

// next returns the batch to probe next, or false when the search is done.
func (s *search) next(limit int) (int, bool) {
	if s.lo == 0 && s.hi == 0 {
		return limit, true
	}
	if s.hi-s.lo > 1 {
		return (s.lo + s.hi) / 2, true
	}
	return 0, false
}

// record takes the verdict of probing batch.
func (s *search) record(batch int, ok bool) {
	if ok {
		s.lo = batch
	} else {
		s.hi = batch
	}
}

// sequential is the RoundRunner that runs a round's probes in order on
// the calling goroutine.
func sequential(probes []Probe, fit func(i int) (bool, error)) ([]bool, error) {
	verdicts := make([]bool, len(probes))
	for i := range probes {
		ok, err := fit(i)
		if err != nil {
			return nil, err
		}
		verdicts[i] = ok
	}
	return verdicts, nil
}

// fits reports whether two training steps of g run under policy p
// without running out of memory. Any other failure is an error.
func fits(g *graph.Graph, spec memsys.Spec, p exec.Policy) (bool, error) {
	rt, err := exec.NewRuntime(g, spec, p)
	if err == nil {
		_, err = rt.RunSteps(2)
	}
	if errors.Is(err, exec.ErrOOM) {
		return false, nil
	}
	return err == nil, err
}
