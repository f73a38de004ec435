package experiment

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"

	"sentinel/internal/chaos"
	"sentinel/internal/core"
	"sentinel/internal/exec"
	"sentinel/internal/gpu"
	"sentinel/internal/graph"
	"sentinel/internal/memsys"
	"sentinel/internal/metrics"
	"sentinel/internal/model"
	"sentinel/internal/policyset"
	"sentinel/internal/profile"
	"sentinel/internal/simtime"
	"sentinel/internal/trace"
)

// Cache memoizes the expensive shared stages of a sweep: profiling runs,
// plan construction, and whole simulation cells, keyed by (model, batch,
// machine preset, policy, capacity, steps). The simulator is deterministic
// — a cell is a pure function of its key — so sweeps that revisit the same
// configuration (Fig. 7's sentinel runs reappear in Table IV; every
// figure's fast-only references recur) reuse one result instead of
// recomputing the plan from scratch.
//
// Lookups are singleflight: the first worker to request a key computes it
// while any concurrent requester for the same key blocks until that
// computation finishes, so two pool workers never duplicate a plan build.
// Hit/miss/wait counters (Stats) make the deduplication measurable.
//
// An entry also keeps the encoded reply a server sent for it (ServeCell,
// ServePlan), so that a repeated request is answered without running,
// summarizing or encoding anything again.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	stats   struct {
		hits, misses, waits atomic.Int64
	}
}

type cacheEntry struct {
	once sync.Once
	val  any
	err  error
	done atomic.Bool // computation finished
	// reply is the encoded response served for a successful val, nil
	// until one is served; guarded by Cache.mu.
	reply []byte
}

// NewCache returns an empty cache, safe for concurrent use. One cache may
// be shared across experiments (cmd/sentinel-bench shares one across the
// whole sweep).
func NewCache() *Cache {
	return &Cache{entries: map[string]*cacheEntry{}}
}

// reply returns the value and the reply kept on key's entry, counting the
// hit the entry's lookup would count. An entry with no reply counts
// nothing: the computation that answers the request counts its own
// lookups.
func (c *Cache) reply(key string) (any, []byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil || e.reply == nil {
		return nil, nil, false
	}
	c.stats.hits.Add(1)
	return e.val, e.reply, true
}

// keepReply keeps body on key's entry unless a reply is already there.
// Only the reply to a successful value belongs here: it is served to
// every later request that resolves to the entry.
func (c *Cache) keepReply(key string, body []byte) {
	c.mu.Lock()
	if e := c.entries[key]; e != nil && e.reply == nil {
		e.reply = body
	}
	c.mu.Unlock()
}

// do returns the memoized value for key, computing it at most once.
// Concurrent callers with the same key wait for the single computation;
// a failing compute is memoized and its error returned to every waiter,
// never silently converted into a cached success. A panicking compute is
// captured as a *PanicError so waiters blocked on the same key observe
// the typed failure instead of a poisoned (nil, nil) entry.
func (c *Cache) do(key string, compute func() (any, error)) (any, error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	switch {
	case !ok:
		c.stats.misses.Add(1)
	case e.done.Load():
		c.stats.hits.Add(1)
	default:
		c.stats.waits.Add(1)
	}
	e.once.Do(func() {
		defer func() {
			if r := recover(); r != nil {
				e.err = &PanicError{Value: r, Stack: debug.Stack()}
			}
			e.done.Store(true)
		}()
		e.val, e.err = compute()
	})
	return e.val, e.err
}

// Len reports how many keys have been requested so far.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns a point-in-time snapshot of the cache's counters.
func (c *Cache) Stats() metrics.CacheStats {
	return metrics.CacheStats{
		Hits:   c.stats.hits.Load(),
		Misses: c.stats.misses.Load(),
		Waits:  c.stats.waits.Load(),
	}
}

// cacheDo memoizes compute under key when o carries a cache; otherwise it
// computes directly (the -seq path must not depend on the cache).
func cacheDo[T any](o Options, key string, compute func() (T, error)) (T, error) {
	if o.Cache == nil || o.NoCache {
		return compute()
	}
	v, err := o.Cache.do(key, func() (any, error) { return compute() })
	if err != nil {
		var zero T
		return zero, err
	}
	return v.(T), nil
}

// serveReply answers a served request that resolves to key from the
// reply kept on key's entry. Otherwise it computes the entry's value,
// renders the reply and keeps it there, so memory grows by one reply per
// entry a server answers from. Only a rendered success is kept: a failed
// or cancelled request leaves the entry without a reply, and the next
// one computes afresh. Without a cache, every request computes.
func serveReply[T any](o Options, key string, compute func() (T, error), render func(T) ([]byte, error)) ([]byte, T, error) {
	cached := o.Cache != nil && !o.NoCache
	if cached {
		if v, body, ok := o.Cache.reply(key); ok {
			return body, v.(T), nil
		}
	}
	var zero T
	v, err := compute()
	if err != nil {
		return nil, zero, err
	}
	body, err := render(v)
	if err != nil {
		return nil, zero, err
	}
	if cached {
		o.Cache.keepReply(key, body)
	}
	return body, v, nil
}

// cellRun describes one simulation cell: a (model, batch, machine, policy,
// steps) configuration, optionally with a forced migration-interval length
// (Fig. 5).
type cellRun struct {
	model  string
	batch  int
	spec   memsys.Spec
	policy string
	steps  int
	mil    int               // ForceMIL for the sentinel policy; 0 = model-chosen
	chaos  chaos.Config      // fault injection; zero = clean run
	online exec.OnlineConfig // adaptive controller; zero = static plan
}

// key canonicalizes the cell for memoization. Capacity enters through the
// tier sizes: presets share a Name, so WithFastSize variants must not
// collide.
func (c cellRun) key() string {
	k := fmt.Sprintf("run|%s|b%d|%s|f%d|s%d|%s|n%d|mil%d",
		c.model, c.batch, c.spec.Name, c.spec.Fast.Size, c.spec.Slow.Size,
		c.policy, c.steps, c.mil)
	// Chaos knobs change the cell's result; a disabled config contributes
	// nothing, so clean cells keep their pre-chaos keys.
	if ck := c.chaos.Key(); ck != "" {
		k += "|" + ck
	}
	// Likewise the online controller: static cells keep their keys, online
	// cells are qualified so a shared cache never serves a static result
	// for an adaptive run (or vice versa).
	if ok := c.online.Key(); ok != "" {
		k += "|" + ok
	}
	return k
}

// label names the cell's run in trace events and quarantine notes:
// policy, model, batch, the capacity point and the step count, enough to
// tell sweep cells apart in an exported timeline.
func (c cellRun) label() string {
	l := fmt.Sprintf("%s/%s/b%d/%s/fast=%s/steps=%d",
		c.policy, c.model, c.batch, c.spec.Name, simtime.Bytes(c.spec.Fast.Size), c.steps)
	if c.mil > 0 {
		l += fmt.Sprintf("/mil=%d", c.mil)
	}
	if ck := c.chaos.Key(); ck != "" {
		l += "/" + ck
	}
	if c.online.Enabled {
		l += "/online"
	}
	return l
}

// execute runs the cell from scratch: build the graph, run the policy.
func (c cellRun) execute(bus *trace.Bus) (*metrics.RunStats, error) {
	g, err := model.BuildShared(c.model, c.batch)
	if err != nil {
		return nil, err
	}
	var opts []exec.Option
	if bus != nil {
		opts = append(opts, exec.WithTrace(bus, c.label()))
	}
	if c.chaos.Enabled() {
		opts = append(opts, exec.WithChaos(chaos.New(c.chaos)))
	}
	if c.online.Enabled {
		opts = append(opts, exec.WithOnline(c.online))
	}
	if c.mil > 0 {
		cfg := core.DefaultConfig()
		cfg.ForceMIL = c.mil
		rt, err := exec.NewRuntime(g, c.spec, core.New(cfg), opts...)
		if err != nil {
			return nil, err
		}
		return rt.RunSteps(c.steps)
	}
	return policyset.Run(g, c.spec, c.policy, c.steps, opts...)
}

// withChaos gives a cell that carries no fault injection of its own the
// sweep-wide Options.Chaos. Callers apply it before taking the cell's
// label, so quarantine notes, out-of-memory errors and trace run labels
// all name the cell that actually ran.
func (o Options) withChaos(c cellRun) cellRun {
	if !c.chaos.Enabled() && o.Chaos.Enabled() {
		c.chaos = o.Chaos
	}
	return c
}

// run executes one cell, already resolved by withChaos, memoized when the
// plan cache is enabled. Cached *RunStats are shared across cells and
// experiments; they are read-only once the run completes.
func (o Options) run(c cellRun) (*metrics.RunStats, error) {
	return cacheDo(o, c.key(), func() (*metrics.RunStats, error) {
		if o.cellHook != nil {
			o.cellHook(c)
		}
		return c.execute(o.Trace)
	})
}

// runAll submits a batch of cells through the worker pool, each under the
// fault boundary (runCell) with its label, returning run stats in cell
// order. It is the one way a runner runs cellRuns.
//
// A cell that runs out of fast memory (exec.ErrOOM) is a result, not a
// fault: its slot is nil, and the table renders it "oom" (runFit refuses
// it for tables that cannot). A quarantined cell contributes placeholder
// (zeroed) stats, so every other cell still completes and renders.
func (o Options) runAll(cells []cellRun) ([]*metrics.RunStats, error) {
	return runCells(o, len(cells), func(i int) (*metrics.RunStats, error) {
		c := o.withChaos(cells[i])
		name := func() (string, *metrics.RunStats) { return c.label(), quarantinedStats(c) }
		return runCell(o, name, func() (*metrics.RunStats, error) {
			r, err := o.run(c)
			if errors.Is(err, exec.ErrOOM) {
				return nil, nil
			}
			return r, err
		})
	})
}

// runFit is runAll for tables with no "oom" rendering: a cell that ran
// out of fast memory fails the experiment, naming the cell.
func (o Options) runFit(cells []cellRun) ([]*metrics.RunStats, error) {
	runs, err := o.runAll(cells)
	if err != nil {
		return nil, err
	}
	for i, r := range runs {
		if r == nil {
			return nil, fmt.Errorf("%s: %w", o.withChaos(cells[i]).label(), exec.ErrOOM)
		}
	}
	return runs, nil
}

// quarantinedStats is the placeholder result of a quarantined cell: the
// cell's identity with a single zeroed step, so row assembly that derefs
// the steady step renders zeros/"n/a" instead of crashing, and the table
// footer explains why.
func quarantinedStats(c cellRun) *metrics.RunStats {
	return &metrics.RunStats{
		Policy: c.policy, Model: c.model, Batch: c.batch,
		Steps: []*metrics.StepStats{{}},
	}
}

// peak returns the model's peak step memory, memoized per (model, batch)
// so sizing a sweep does not rebuild the graph per cell.
func (o Options) peak(modelName string, batch int) (int64, error) {
	return cacheDo(o, fmt.Sprintf("peak|%s|b%d", modelName, batch), func() (int64, error) {
		g, err := model.BuildShared(modelName, batch)
		if err != nil {
			return 0, err
		}
		return g.PeakMemory(), nil
	})
}

// fastSized returns platform with fast memory set to fastPct of the
// model's peak memory, plus the peak itself.
func (o Options) fastSized(platform memsys.Spec, modelName string, batch int) (memsys.Spec, int64, error) {
	peak, err := o.peak(modelName, batch)
	if err != nil {
		return memsys.Spec{}, 0, err
	}
	return platform.WithFastSize(int64(fastPct / 100.0 * float64(peak))), peak, nil
}

// characterize memoizes the Sec. III characterization study per model.
func (o Options) characterize(modelName string, batch int, spec memsys.Spec) (*profile.Characterization, error) {
	key := fmt.Sprintf("char|%s|b%d|%s", modelName, batch, spec.Name)
	return cacheDo(o, key, func() (*profile.Characterization, error) {
		g, err := model.BuildShared(modelName, batch)
		if err != nil {
			return nil, err
		}
		return profile.Characterize(g, spec)
	})
}

// collectProfile memoizes Sentinel's tensor-level profiling step per model.
func (o Options) collectProfile(modelName string, batch int, spec memsys.Spec) (*profile.Profile, error) {
	return cacheDo(o, profileKey(modelName, batch, spec), func() (*profile.Profile, error) {
		g, err := model.BuildShared(modelName, batch)
		if err != nil {
			return nil, err
		}
		return profile.Collect(g, spec)
	})
}

// profileKey is the cache key of a model's profiling step on spec.
func profileKey(modelName string, batch int, spec memsys.Spec) string {
	return fmt.Sprintf("prof|%s|b%d|%s", modelName, batch, spec.Name)
}

// maxBatches memoizes Table V's max-batch searches for one model, one
// per policy. The searches run in lockstep (gpu.Lockstep): each round
// builds every distinct batch's graph once and fans its probes out over
// the pool. Policy names are validated up front: a factory cannot return
// an error, and a bad name must fail the experiment, not the process.
// Table V runs each model's search as one cell under the fault boundary,
// which wraps the memoized search whole, so an abandoned search still
// completes into the cache and never stores a timeout.
func (o Options) maxBatches(modelName string, spec memsys.Spec, policies []string, limit int) ([]int, error) {
	factories := make([]func() exec.Policy, len(policies))
	for i, name := range policies {
		if _, err := policyset.New(name); err != nil {
			return nil, err
		}
		factories[i] = func() exec.Policy {
			// Validated above; a registry lookup cannot fail between
			// the check and here.
			p, _ := policyset.New(name)
			return p
		}
	}
	build := func(batch int) (*graph.Graph, error) { return model.Build(modelName, batch) }
	round := func(probes []gpu.Probe, fit func(i int) (bool, error)) ([]bool, error) {
		return runCells(o, len(probes), fit)
	}
	key := fmt.Sprintf("maxb|%s|%s|f%d|%s|l%d", modelName, spec.Name, spec.Fast.Size, strings.Join(policies, ","), limit)
	return cacheDo(o, key, func() ([]int, error) {
		return gpu.Lockstep(build, spec, factories, limit, round)
	})
}
