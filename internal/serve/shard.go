package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sentinel/internal/dist"
	"sentinel/internal/experiment"
	"sentinel/internal/metrics"
)

// This file is the worker side of the distributed-sweep lease protocol
// (internal/dist, docs/DISTRIBUTED.md): a sentinel-serve instance can
// hold shard leases for a remote coordinator. Three endpoints:
//
//	POST   /v1/shard          grant a lease, start the shard sweep
//	GET    /v1/shard/status   heartbeat: renew the lease, stream journal bytes
//	DELETE /v1/shard          release the lease and its resources
//
// Each lease runs in a private journal directory with a private plan
// cache. Private on purpose: the server's shared cache would serve
// memoized cells without re-executing them, and a cache hit never
// reaches the journal — the coordinator would salvage an empty journal
// from a "successful" worker. Isolation guarantees every in-shard cell
// this lease completes is journaled, which is the entire product of a
// shard attempt.
//
// The lease TTL is the server's dead-coordinator insurance: a
// coordinator that crashes stops heartbeating, the TTL fires, the shard
// run is cancelled, and the lease's directory is reclaimed. Every
// status poll renews the clock.

// shardLease is one granted lease: a shard sweep running in its own
// directory, supervised by a TTL timer.
type shardLease struct {
	id     string
	tenant string
	dir    string
	ttl    time.Duration
	cancel context.CancelFunc
	timer  *time.Timer
	// done closes when the sweep goroutine has fully stopped; resource
	// cleanup waits on it so the journal directory is never yanked from
	// under a running sweep.
	done chan struct{}
	// reclaimed flips once the registry has dropped the lease. The
	// journal directory is removed when BOTH the sweep has stopped and
	// the lease is reclaimed — by whichever side finishes second (each
	// sets its own flag, then checks the other's). Neither side parks a
	// goroutine waiting for the other, so a wedged sweep cannot strand
	// a cleanup goroutine, and an unreclaimed lease keeps its journal
	// salvageable.
	reclaimed  atomic.Bool
	removeOnce sync.Once

	mu       sync.Mutex
	state    string // dist.ShardRunning / ShardCompleted / ShardFailed
	errMsg   string
	replayed int // cells seeded from the request's salvage image
	journal  *experiment.Journal
}

// setState moves a still-running lease to a terminal state; terminal
// states never regress (a drain racing sweep completion keeps whichever
// verdict landed first).
func (l *shardLease) setState(state, errMsg string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.state != dist.ShardRunning {
		return
	}
	l.state = state
	l.errMsg = errMsg
}

// maybeRemoveDir reclaims the lease's journal directory once the sweep
// has stopped AND the registry has dropped the lease. Both the sweep
// goroutine (after close(done)) and the registry (after setting
// reclaimed) call it; the flag-then-check ordering on each side
// guarantees the second finisher observes both conditions, and the
// Once keeps the removal single-shot when the race is tied.
func (l *shardLease) maybeRemoveDir() {
	if !l.reclaimed.Load() {
		return
	}
	select {
	case <-l.done:
		l.removeOnce.Do(func() {
			os.RemoveAll(l.dir) //nolint:errcheck // best-effort temp cleanup
		})
	default:
		// Sweep still running; it removes the dir when it stops.
	}
}

// status snapshots the lease for a ShardStatus response.
func (l *shardLease) status() (state, errMsg string, cells int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state, l.errMsg, l.replayed + l.journal.Appended()
}

// shardRegistry owns every live lease on this server.
type shardRegistry struct {
	maxShards int
	defTTL    time.Duration
	stats     *metrics.DistStats

	mu     sync.Mutex
	leases map[string]*shardLease
	nextID int
}

func newShardRegistry(maxShards int, defTTL time.Duration, stats *metrics.DistStats) *shardRegistry {
	return &shardRegistry{
		maxShards: maxShards,
		defTTL:    defTTL,
		stats:     stats,
		leases:    map[string]*shardLease{},
	}
}

// errShardsSaturated refuses a grant past the concurrent-lease cap.
var errShardsSaturated = errors.New("all shard slots leased")

// grant registers a new lease if a slot is free and returns its id.
// The TTL timer is armed here, before the lease becomes findable: a
// status poll racing the grant must never observe a nil timer through
// renew. onExpire receives the lease id when the TTL lapses.
func (r *shardRegistry) grant(l *shardLease, onExpire func(id string)) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	running := 0
	for _, held := range r.leases {
		state, _, _ := held.status()
		if state == dist.ShardRunning {
			running++
		}
	}
	if running >= r.maxShards {
		return "", fmt.Errorf("%w (%d in flight)", errShardsSaturated, running)
	}
	r.nextID++
	l.id = fmt.Sprintf("lease-%d", r.nextID)
	l.timer = time.AfterFunc(l.ttl, func() { onExpire(l.id) })
	r.leases[l.id] = l
	r.stats.LeaseGranted(l.tenant)
	return l.id, nil
}

// get looks a lease up by id.
func (r *shardRegistry) get(id string) (*shardLease, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	l, ok := r.leases[id]
	return l, ok
}

// expire reclaims a lease whose TTL lapsed: the coordinator stopped
// heartbeating (or never collected a finished shard), so the run is
// cancelled and the directory reclaimed once the sweep goroutine stops.
func (r *shardRegistry) expire(id string) {
	r.mu.Lock()
	l, ok := r.leases[id]
	if ok {
		delete(r.leases, id)
	}
	r.mu.Unlock()
	if !ok {
		return
	}
	if state, _, _ := l.status(); state == dist.ShardRunning {
		r.stats.LeaseExpired(l.tenant)
	} else {
		r.stats.LeaseDone(l.tenant)
	}
	l.setState(dist.ShardFailed, "lease expired on worker")
	l.cancel()
	l.reclaimed.Store(true)
	l.maybeRemoveDir()
}

// release hands a lease back deliberately (DELETE): same reclamation as
// expiry, but counted as a completed handback, not a loss.
func (r *shardRegistry) release(id string) (*shardLease, bool) {
	r.mu.Lock()
	l, ok := r.leases[id]
	if ok {
		delete(r.leases, id)
	}
	r.mu.Unlock()
	if !ok {
		return nil, false
	}
	l.timer.Stop()
	r.stats.LeaseDone(l.tenant)
	l.setState(dist.ShardFailed, "lease released")
	l.cancel()
	l.reclaimed.Store(true)
	l.maybeRemoveDir()
	return l, true
}

// drain cancels every live lease: the server is shutting down, so
// running shards fail fast with a cause the coordinator can act on
// (it reassigns them to another worker). Leases stay queryable so a
// final status poll can still salvage their journals.
func (r *shardRegistry) drain() {
	r.mu.Lock()
	ids := make([]string, 0, len(r.leases))
	for id := range r.leases {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	leases := make([]*shardLease, 0, len(ids))
	for _, id := range ids {
		leases = append(leases, r.leases[id])
	}
	r.mu.Unlock()
	for _, l := range leases {
		if state, _, _ := l.status(); state == dist.ShardRunning {
			r.stats.LeaseExpired(l.tenant)
		}
		l.setState(dist.ShardFailed, "worker draining")
		l.cancel()
	}
}

// renew pushes a lease's expiry out by its TTL (every successful status
// poll is a heartbeat).
func (l *shardLease) renew() { l.timer.Reset(l.ttl) }

// shardError writes a typed JSON error for the shard endpoints.
func shardError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeError(w, status, apiError{Code: code, Message: fmt.Sprintf(format, args...)})
}

// handleShard routes POST (grant) and DELETE (release) on /v1/shard.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.handleShardStart(w, r)
	case http.MethodDelete:
		s.handleShardRelease(w, r)
	default:
		w.Header().Set("Allow", "POST, DELETE")
		shardError(w, http.StatusMethodNotAllowed, "method_not_allowed",
			"method %s not allowed; use POST or DELETE", r.Method)
	}
}

// handleShardStart grants a lease and launches the shard sweep.
func (s *Server) handleShardStart(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.reqs.Reject()
		s.retryAfter(w)
		shardError(w, http.StatusServiceUnavailable, "draining",
			"server is draining; lease a shard from another worker")
		return
	}
	var req dist.ShardRequest
	if err := decodeInto(r, &req); err != nil {
		var reqErr *experiment.RequestError
		if errors.As(err, &reqErr) {
			writeError(w, http.StatusBadRequest, apiError{
				Code: "invalid_request", Field: reqErr.Field, Message: reqErr.Reason})
			return
		}
		shardError(w, http.StatusBadRequest, "invalid_request", "%v", err)
		return
	}
	if req.Shards < 1 {
		shardError(w, http.StatusBadRequest, "invalid_request", "shards must be >= 1, got %d", req.Shards)
		return
	}
	if req.Shard < 0 || req.Shard >= req.Shards {
		shardError(w, http.StatusBadRequest, "invalid_request",
			"shard must be in [0, %d), got %d", req.Shards, req.Shard)
		return
	}
	if len(req.Exps) == 0 {
		shardError(w, http.StatusBadRequest, "invalid_request", "exps is required")
		return
	}
	for _, id := range req.Exps {
		if !experiment.Known(id) {
			shardError(w, http.StatusBadRequest, "invalid_request",
				"unknown experiment %q (known: %v)", id, experiment.IDs())
			return
		}
	}
	ttl := time.Duration(req.TTLMillis) * time.Millisecond
	if ttl <= 0 || ttl > s.cfg.ShardTTL {
		ttl = s.cfg.ShardTTL
	}

	tenant := r.Header.Get(TenantHeader)
	if tenant == "" {
		tenant = "anonymous"
	}
	dir, err := os.MkdirTemp("", "sentinel-serve-shard-")
	if err != nil {
		shardError(w, http.StatusInternalServerError, "internal", "creating shard dir: %v", err)
		return
	}
	if len(req.Seed) > 0 {
		if err := os.WriteFile(filepath.Join(dir, experiment.JournalFile), req.Seed, 0o644); err != nil {
			os.RemoveAll(dir)
			shardError(w, http.StatusInternalServerError, "internal", "seeding journal: %v", err)
			return
		}
	}
	journal, err := experiment.OpenJournal(dir)
	if err != nil {
		os.RemoveAll(dir)
		// A seed image that is not a journal is the caller's fault.
		if errors.Is(err, experiment.ErrNotJournal) {
			shardError(w, http.StatusBadRequest, "invalid_request", "seed is not a journal image")
			return
		}
		shardError(w, http.StatusInternalServerError, "internal", "opening journal: %v", err)
		return
	}
	// Private cache: completed seed cells come back via Replay, and
	// everything this lease computes is journaled (the shared server
	// cache would satisfy cells without journaling them).
	cache := experiment.NewCache()
	replayed, _, err := journal.Replay(cache)
	if err != nil {
		journal.Close()
		os.RemoveAll(dir)
		shardError(w, http.StatusBadRequest, "invalid_request", "replaying seed journal: %v", err)
		return
	}

	ctx, cancel := context.WithCancel(context.Background())
	l := &shardLease{
		tenant: tenant, dir: dir, ttl: ttl, cancel: cancel,
		done: make(chan struct{}), state: dist.ShardRunning,
		replayed: replayed, journal: journal,
	}
	id, err := s.shards.grant(l, s.shards.expire)
	if err != nil {
		cancel()
		journal.Close()
		os.RemoveAll(dir)
		s.reqs.Reject()
		s.retryAfter(w)
		shardError(w, http.StatusTooManyRequests, "overloaded",
			"%v; retry after %v", err, s.cfg.RetryAfter)
		return
	}

	o := experiment.Options{
		Steps: req.Steps, Quick: req.Quick, Workers: s.cfg.Workers,
		Cache: cache, Journal: journal, Ctx: ctx,
		Shard: experiment.ShardPlan{Count: req.Shards, Index: req.Shard},
	}
	start := s.shardStart
	go func() {
		defer func() {
			close(l.done)
			// If the lease was reclaimed while the sweep ran, the dir
			// is ours to remove; otherwise expire/release removes it.
			l.maybeRemoveDir()
		}()
		if start != nil {
			select {
			case <-start:
			case <-ctx.Done():
			}
		}
		var runErr error
		for _, exp := range req.Exps {
			if _, err := experiment.Run(exp, o); err != nil {
				runErr = err
				break
			}
			if ctx.Err() != nil {
				runErr = ctx.Err()
				break
			}
		}
		switch {
		case runErr != nil:
			l.setState(dist.ShardFailed, runErr.Error())
		default:
			l.setState(dist.ShardCompleted, "")
		}
		journal.Close() //nolint:errcheck // append errors surface via Journal.Err
	}()

	writeJSON(w, dist.ShardStatus{ //nolint:errcheck // response already committed
		Lease: id, State: dist.ShardRunning, Offset: 0, Cells: replayed,
	})
}

// handleShardStatus serves GET /v1/shard/status: the coordinator's
// heartbeat. Renews the lease and returns the shard state plus every
// journal byte past the requested offset, so the coordinator's salvage
// is never more than one heartbeat stale.
func (s *Server) handleShardStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		shardError(w, http.StatusMethodNotAllowed, "method_not_allowed",
			"method %s not allowed; use GET", r.Method)
		return
	}
	id := r.URL.Query().Get("lease")
	if id == "" {
		shardError(w, http.StatusBadRequest, "invalid_request", "lease is required")
		return
	}
	offset := int64(0)
	if v := r.URL.Query().Get("offset"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			shardError(w, http.StatusBadRequest, "invalid_request", "offset must be a non-negative integer, got %q", v)
			return
		}
		offset = n
	}
	l, ok := s.shards.get(id)
	if !ok {
		shardError(w, http.StatusNotFound, "not_found", "no such lease %q (expired or released)", id)
		return
	}
	l.renew()
	state, errMsg, cells := l.status()
	image, err := os.ReadFile(filepath.Join(l.dir, experiment.JournalFile))
	if err != nil && !os.IsNotExist(err) {
		shardError(w, http.StatusInternalServerError, "internal", "reading shard journal: %v", err)
		return
	}
	if offset > int64(len(image)) {
		// The journal can only grow; an offset past the end means the
		// caller is confused about which lease it polls.
		shardError(w, http.StatusBadRequest, "invalid_request",
			"offset %d beyond journal end %d", offset, len(image))
		return
	}
	writeJSON(w, dist.ShardStatus{ //nolint:errcheck // response already committed
		Lease: id, State: state, Err: errMsg,
		Journal: image[offset:], Offset: int64(len(image)), Cells: cells,
	})
}

// handleShardRelease serves DELETE /v1/shard?lease=...: the coordinator
// is done with the lease (journal merged or shard abandoned).
func (s *Server) handleShardRelease(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("lease")
	if id == "" {
		shardError(w, http.StatusBadRequest, "invalid_request", "lease is required")
		return
	}
	l, ok := s.shards.release(id)
	if !ok {
		shardError(w, http.StatusNotFound, "not_found", "no such lease %q (expired or released)", id)
		return
	}
	state, errMsg, cells := l.status()
	writeJSON(w, dist.ShardStatus{ //nolint:errcheck // response already committed
		Lease: id, State: state, Err: errMsg, Cells: cells,
	})
}
