package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"

	"sentinel/internal/experiment"
)

// runPaperSweep runs the paper's quick sweep the way the golden tests pin
// it (quick, 3 steps), over a 2-wide pool with one fresh cache shared by
// the whole sweep, as sentinel-bench does. One op is one sweep. Its
// input is the fixed experiment registry, so the seed changes nothing.
func runPaperSweep(r *run) error {
	ids := r.size.sweepIDs
	perID := map[string][]float64{}
	var sweeps, hits, misses, waits []float64
	err := r.loop(func() error {
		var golden map[string]string
		var cache *experiment.Cache
		if err := r.setup(func() error {
			var err error
			golden, err = loadGoldens(r.root, ids)
			cache = experiment.NewCache()
			return err
		}); err != nil {
			return err
		}
		o := experiment.Options{Quick: true, Steps: 3, Workers: 2, Cache: cache}
		sim := newSimDigest()
		op := r.newOp()
		sweep := r.spans.begin("paper-sweep.sweep", op, -1)
		var bad []error
		for _, id := range ids {
			sp := r.spans.begin("experiment.Run/"+id, op, sweep.idx)
			t, err := experiment.Run(id, o)
			perID[id] = append(perID[id], ms(sp.end().cpu))
			sampleHostSpeed()
			if err != nil {
				bad = append(bad, fmt.Errorf("%s: %w", id, err))
				continue
			}
			got := t.String()
			if note := incomplete(t); note != "" {
				bad = append(bad, fmt.Errorf("%s: %s", id, note))
			} else if got != golden[id] {
				bad = append(bad, fmt.Errorf("%s: table differs from its golden", id))
			}
			h := fnv.New64a()
			h.Write([]byte(got))
			sim.add(h.Sum64())
		}
		d := sweep.end()
		r.op(d, errors.Join(bad...))
		r.rate(1, d)
		sweeps = append(sweeps, ms(d.cpu))
		s := cache.Stats()
		hits = append(hits, float64(s.Hits))
		misses = append(misses, float64(s.Misses))
		waits = append(waits, float64(s.Waits))
		if r.segments == 0 {
			r.digest = sim.String()
		}
		return nil
	})
	if err != nil || !r.traced {
		return err
	}
	var sum float64
	for _, id := range ids {
		v := median(perID[id])
		r.layer["experiment."+id+"_ms"] = v
		sum += v
	}
	r.layer["experiment.cache_hits"] = median(hits)
	r.layer["experiment.cache_misses"] = median(misses)
	r.layer["experiment.cache_waits"] = median(waits)
	r.reconcile("sum of experiment.<id>_ms against the sweep", sum, median(sweeps), 3)
	return nil
}

// loadGoldens reads the committed table snapshots of the tree being
// measured.
func loadGoldens(root string, ids []string) (map[string]string, error) {
	golden := map[string]string{}
	for _, id := range ids {
		b, err := os.ReadFile(filepath.Join(root, "internal", "experiment", "testdata", "golden", id+".golden"))
		if err != nil {
			return nil, err
		}
		golden[id] = string(b)
	}
	return golden, nil
}

// incomplete returns the table's incomplete-table footer line, or "".
func incomplete(t *experiment.Table) string {
	for _, n := range t.Notes {
		if strings.HasPrefix(n, "TABLE INCOMPLETE") {
			return n
		}
	}
	return ""
}
