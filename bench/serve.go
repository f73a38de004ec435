package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"

	"sentinel/internal/experiment"
	"sentinel/internal/model"
	"sentinel/internal/serve"
)

// The serve-mixed traffic: set-up sends each of hotKeys keys once, then
// one closed-loop caller works through a list of requests in which
// hotShare read one of the hot keys, all cache hits, and the rest carry
// keys never sent before, each a miss that the server computes and
// caches; planShare of the keys are /v1/plan. These shares are
// synthetic, chosen to run the cache hit path and the miss path
// together; no record of served traffic backs them. One caller, not
// two, so that each request's CPU time is its own: with one request in
// flight, the CPU the process spends on it is the server's work on it.
const (
	hotKeys   = 64
	hotShare  = 0.9
	planShare = 0.4
	// probeReps is how often a traced run re-sends each hot key through
	// the cache alone.
	probeReps = 8
)

// simulatePolicies are the CPU policies /v1/simulate requests name,
// AutoTM among them: its ILP makes its misses the slowest.
var simulatePolicies = []string{"sentinel", "ial", "autotm", "memory-mode", "first-touch"}

// request is one pre-encoded serve-mixed request.
type request struct {
	Path string
	Body string
	// Hot reports one of the keys set-up sends, which the server then
	// answers from its cache.
	Hot bool

	cell *experiment.CellRequest // the decoded body, for the cache probe
	plan *experiment.PlanRequest
}

func (q request) key() string { return q.Path + " " + q.Body }

// planPoints is how many batch sizes per model plan keys use. Each
// batch is planned on two CPU platforms, which gives 5*2*planPoints
// distinct plan keys while keeping the graphs the server memoizes few.
const planPoints = 40

// planPlatforms are the platforms plan keys name: the CPU machines, whose
// slow tier holds any of the batches.
var planPlatforms = []string{"optane", "cxl"}

// requestGen draws distinct request keys. Plan keys take each model's
// batch and platform pairs without replacement, in seeded order.
// Simulate keys walk one fixed sequence through every model and policy,
// spreading batch and fast-tier size evenly, and are the same for every
// seed: their AutoTM misses, most of a segment's miss time, cost several
// times as much at some batches and fast-tier sizes as at others, and
// seeded simulate keys made throughput differ by 8% from one seed to
// another, run after run.
type requestGen struct {
	models      []model.EvalModel
	planKeys    [][]experiment.PlanRequest // per model, keys not used yet
	plans, sims int
}

func newRequestGen(rng *rand.Rand) *requestGen {
	g := &requestGen{models: model.EvalSet()}
	for _, m := range g.models {
		var keys []experiment.PlanRequest
		for _, b := range midpoints(float64(m.SmallBatch/2), float64(2*m.LargeBatch), planPoints) {
			for _, p := range planPlatforms {
				keys = append(keys, experiment.PlanRequest{Model: m.Name, Batch: int(b), Platform: p})
			}
		}
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		g.planKeys = append(g.planKeys, keys)
	}
	return g
}

func (g *requestGen) plan() request {
	i := g.plans % len(g.models)
	g.plans++
	p := g.planKeys[i][0]
	g.planKeys[i] = g.planKeys[i][1:]
	return request{Path: "/v1/plan", Body: mustJSON(p), plan: &p}
}

func (g *requestGen) simulate() request {
	k := g.sims
	g.sims++
	combos := len(g.models) * len(simulatePolicies)
	m, j := g.models[k%len(g.models)], k/combos
	// Each model and policy walks the golden-ratio sequence, which spreads
	// any number of points evenly, from its own start.
	frac := math.Mod(float64(k%combos)/float64(combos)+float64(j)*0.6180339887498949, 1)
	lo, hi := float64(m.SmallBatch/2), float64(m.LargeBatch)
	c := &experiment.CellRequest{
		Model:   m.Name,
		Batch:   int(lo + (float64(j%batchPoints)+0.5)*(hi-lo)/batchPoints),
		Policy:  simulatePolicies[(k/len(g.models))%len(simulatePolicies)],
		FastPct: math.Round(1000+8000*frac) / 100,
		Steps:   3,
	}
	return request{Path: "/v1/simulate", Body: mustJSON(c), cell: c}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings and numbers always encode
	}
	return string(b)
}

// deck returns n flags with exactly k of them set, in seeded order.
func deck(rng *rand.Rand, n, k int) []bool {
	d := make([]bool, n)
	for i := 0; i < k; i++ {
		d[i] = true
	}
	rng.Shuffle(n, func(i, j int) { d[i], d[j] = d[j], d[i] })
	return d
}

// traffic is one segment's requests: the hot keys, sent once at set-up,
// and the timed list.
type traffic struct {
	hot, reqs []request
}

// serveRequests generates the hot keys and n timed requests: exactly
// hotShare of them read a hot key, each hot key as often as any other
// give or take one, the others carry fresh keys, and exactly planShare of
// the hot and of the fresh keys are plan requests. Every request fits the
// platform, so none should fail.
func serveRequests(seed int64, n int) traffic {
	rng := rand.New(rand.NewSource(seed))
	g := newRequestGen(rng)
	draw := func(plans []bool) []request {
		keys := make([]request, len(plans))
		for i, isPlan := range plans {
			if isPlan {
				keys[i] = g.plan()
			} else {
				keys[i] = g.simulate()
			}
		}
		return keys
	}
	share := func(n int, s float64) int { return int(math.Round(s * float64(n))) }
	hot := draw(deck(rng, hotKeys, share(hotKeys, planShare)))
	for i := range hot {
		hot[i].Hot = true
	}
	fresh := share(n, 1-hotShare)
	freshKeys := draw(deck(rng, fresh, share(fresh, planShare)))
	hits := make([]request, n-fresh)
	for i := range hits {
		hits[i] = hot[i%hotKeys]
	}
	rng.Shuffle(len(hits), func(i, j int) { hits[i], hits[j] = hits[j], hits[i] })
	reqs := make([]request, 0, n)
	for _, isFresh := range deck(rng, n, fresh) {
		if isFresh {
			reqs = append(reqs, freshKeys[0])
			freshKeys = freshKeys[1:]
		} else {
			reqs = append(reqs, hits[0])
			hits = hits[1:]
		}
	}
	return traffic{hot: hot, reqs: reqs}
}

// reply is one request's outcome as the caller saw it.
type reply struct {
	d    lap
	body []byte
	err  error
}

// runServeMixed sends each segment's requests to a fresh server's
// handler, one at a time, after set-up has sent it every hot key once.
// One op is one timed request. A repeated key must get back the bytes of
// its first response, in every segment.
func runServeMixed(r *run) error {
	first := map[string][]byte{}
	var hitMS, missMS []float64
	var hits, misses, waits, rejected []float64
	var tr traffic
	err := r.loop(func() error {
		var srv *serve.Server
		if err := r.setup(func() error {
			tr = serveRequests(r.seed, r.size.requests)
			all := append(append([]request{}, tr.hot...), tr.reqs...)
			if err := prewarmGraphs(func(i int) (string, int) { return all[i].graph() }, len(all)); err != nil {
				return err
			}
			srv = serve.New(serve.Config{Workers: 2, MaxInFlight: 2})
			r.warm(srv.Handler(), tr.hot, first)
			return nil
		}); err != nil {
			return err
		}
		reqs := tr.reqs
		replies, d := r.drive(srv.Handler(), reqs, "serve.ServeHTTP")
		sim := newSimDigest()
		for i, rep := range replies {
			q := reqs[i]
			err := rep.err
			if err == nil {
				err = sameAsFirst(first, q.key(), rep.body)
			}
			r.op(rep.d, err)
			h := fnv.New64a()
			h.Write(rep.body)
			sim.add(h.Sum64())
			if q.Hot {
				hitMS = append(hitMS, ms(rep.d.cpu))
			} else {
				missMS = append(missMS, ms(rep.d.cpu))
			}
		}
		r.rate(len(reqs), d)
		if r.segments == 0 {
			r.digest = sim.String()
		}
		cs, rs := srv.CacheStats(), srv.RequestStats()
		hits = append(hits, float64(cs.Hits))
		misses = append(misses, float64(cs.Misses))
		waits = append(waits, float64(cs.Waits))
		rejected = append(rejected, float64(rs.Rejected))
		return nil
	})
	if err != nil || !r.traced {
		return err
	}
	r.layer["serve.hit_ms_p50"] = median(hitMS)
	r.layer["serve.miss_ms_p50"] = median(missMS)
	r.layer["serve.miss_ms_p95"] = percentile(missMS, 95)
	r.layer["experiment.cache_hit_us_p50"] = median(r.probeCache(tr.hot))
	r.layer["experiment.cache_hits"] = median(hits)
	r.layer["experiment.cache_misses"] = median(misses)
	r.layer["experiment.cache_waits"] = median(waits)
	r.layer["serve.rejected"] = median(rejected)
	return nil
}

// graph is the model and batch whose graph the request needs.
func (q request) graph() (string, int) {
	if q.plan != nil {
		return q.plan.Model, q.plan.Batch
	}
	return q.cell.Model, q.cell.Batch
}

// sameAsFirst checks a response against the first response to its key.
func sameAsFirst(first map[string][]byte, key string, body []byte) error {
	want, ok := first[key]
	if !ok {
		first[key] = body
		return nil
	}
	if !bytes.Equal(want, body) {
		return fmt.Errorf("%s: response differs from the key's first response", key)
	}
	return nil
}

// drive sends reqs to the server's handler one at a time, each once the
// previous reply is written, and returns every reply and the time the
// list took. Each request's span is named span and its path. The
// requests skip the socket: a loopback round trip's CPU time is mostly
// the stock net/http server's and the kernel's, and it moved by 15-27%
// between runs of the same code as the host's load changed where the
// kernel did that work.
func (r *run) drive(h http.Handler, reqs []request, span string) ([]reply, lap) {
	replies := make([]reply, len(reqs))
	start := startTimer()
	for i, q := range reqs {
		rec := httptest.NewRecorder()
		hr := httptest.NewRequest(http.MethodPost, q.Path, strings.NewReader(q.Body))
		sp := r.spans.begin(span+" "+q.Path, r.newOp(), -1)
		h.ServeHTTP(rec, hr)
		replies[i] = reply{d: sp.end(), body: rec.Body.Bytes()}
		if rec.Code != http.StatusOK {
			replies[i].err = fmt.Errorf("%s: HTTP %d: %s", q.Path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		sampleHostSpeed()
	}
	return replies, start.lap()
}

// warm sends every hot key once, so that the timed requests find them
// cached. Each reply is checked like a timed one.
func (r *run) warm(h http.Handler, hot []request, first map[string][]byte) {
	replies, _ := r.drive(h, hot, "serve.warm")
	for i, rep := range replies {
		err := rep.err
		if err == nil {
			err = sameAsFirst(first, hot[i].key(), rep.body)
		}
		if err != nil {
			r.fail(fmt.Errorf("warming: %w", err))
		}
	}
}

// probeCache times the hot keys as hits on a warmed experiment cache,
// with no HTTP, and returns the times in microseconds.
func (r *run) probeCache(hot []request) []float64 {
	o := experiment.Options{Cache: experiment.NewCache(), Workers: 2}
	call := func(q request) error {
		if q.plan != nil {
			_, err := experiment.RunPlan(o, *q.plan)
			return err
		}
		_, err := experiment.RunCell(o, *q.cell)
		return err
	}
	var out []float64
	for rep := 0; rep <= probeReps; rep++ {
		for _, q := range hot {
			sp := r.spans.begin("experiment.cache-hit", r.newOp(), -1)
			err := call(q)
			d := sp.end().cpu
			if err != nil {
				r.fail(fmt.Errorf("cache probe %s: %w", q.key(), err))
			} else if rep > 0 { // the first round warms the cache
				out = append(out, us(d))
			}
		}
	}
	return out
}
