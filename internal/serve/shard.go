package serve

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"sentinel/internal/dist"
	"sentinel/internal/experiment"
	"sentinel/internal/metrics"
)

// This file is the HTTP face of the distributed-sweep lease protocol
// (docs/DISTRIBUTED.md): a sentinel-serve instance can hold shard
// leases for a remote coordinator. Three endpoints:
//
//	POST   /v1/shard          grant a lease, start the shard sweep
//	GET    /v1/shard/status   heartbeat: renew the lease, stream journal bytes
//	DELETE /v1/shard          release the lease and its resources
//
// A lease's run, directory, and state latch are a dist.Lease; this file
// adds the lease-id registry and a TTL, the server's dead-coordinator
// insurance: every status poll renews it, and when it lapses the run is
// cancelled and the directory reclaimed.

// shardLease is one granted lease: a dist.Lease supervised by a TTL
// timer.
type shardLease struct {
	*dist.Lease
	id     string
	tenant string
	ttl    time.Duration
	timer  *time.Timer
}

// shardRegistry owns every live lease on this server.
type shardRegistry struct {
	maxShards int
	stats     *metrics.DistStats

	mu     sync.Mutex
	leases map[string]*shardLease
	nextID int
}

func newShardRegistry(maxShards int, stats *metrics.DistStats) *shardRegistry {
	return &shardRegistry{maxShards: maxShards, stats: stats, leases: map[string]*shardLease{}}
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
		if held.Status().State == dist.ShardRunning {
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

// causeExpired fails a lease whose TTL lapsed: the coordinator stopped
// heartbeating, or never collected a finished shard.
const causeExpired = "lease expired on worker"

// expire is the TTL timer's callback.
func (r *shardRegistry) expire(id string) { r.drop(id, causeExpired) }

// drop removes a lease, cancels its run with cause, and reclaims its
// directory once the run stops. Only a TTL expiry of a still-running
// shard counts as a lost lease; a release (DELETE) is a handback.
func (r *shardRegistry) drop(id, cause string) (*shardLease, bool) {
	r.mu.Lock()
	l, ok := r.leases[id]
	delete(r.leases, id)
	r.mu.Unlock()
	if !ok {
		return nil, false
	}
	l.timer.Stop()
	if cause == causeExpired && l.Status().State == dist.ShardRunning {
		r.stats.LeaseExpired(l.tenant)
	} else {
		r.stats.LeaseDone(l.tenant)
	}
	l.Cancel(cause)
	l.Drop()
	return l, true
}

// drain cancels every live lease: the server is shutting down, so
// running shards fail fast with a cause the coordinator can act on
// (it reassigns them to another worker). Leases stay queryable so a
// final status poll can still salvage their journals.
func (r *shardRegistry) drain() {
	r.mu.Lock()
	leases := make([]*shardLease, 0, len(r.leases))
	for _, l := range r.leases {
		leases = append(leases, l)
	}
	r.mu.Unlock()
	sort.Slice(leases, func(i, j int) bool { return leases[i].id < leases[j].id })
	for _, l := range leases {
		if l.Status().State == dist.ShardRunning {
			r.stats.LeaseExpired(l.tenant)
		}
		l.Cancel("worker draining")
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
		writeExecError(w, r, err)
		return
	}
	t := dist.Task{
		Shard: req.Shard, Shards: req.Shards, Exps: req.Exps,
		Quick: req.Quick, Steps: req.Steps, Seed: req.Seed,
	}
	if err := t.Validate(); err != nil {
		shardError(w, http.StatusBadRequest, "invalid_request", "%v", err)
		return
	}
	ttl := time.Duration(req.TTLMillis) * time.Millisecond
	if ttl <= 0 || ttl > s.cfg.ShardTTL {
		ttl = s.cfg.ShardTTL
	}

	lease, err := dist.StartLease(t, s.cfg.Workers, s.shardStart)
	if err != nil {
		// A seed image that is not a journal is the caller's fault.
		if errors.Is(err, experiment.ErrNotJournal) {
			shardError(w, http.StatusBadRequest, "invalid_request", "seed is not a journal image")
			return
		}
		shardError(w, http.StatusInternalServerError, "internal", "%v", err)
		return
	}
	l := &shardLease{Lease: lease, tenant: tenantOf(r), ttl: ttl}
	id, err := s.shards.grant(l, s.shards.expire)
	if err != nil {
		l.Cancel(err.Error())
		l.Drop()
		s.reqs.Reject()
		s.retryAfter(w)
		shardError(w, http.StatusTooManyRequests, "overloaded",
			"%v; retry after %v", err, s.cfg.RetryAfter)
		return
	}
	st := dist.ShardStatus{Lease: id, State: dist.ShardRunning, Cells: l.Status().Cells}
	writeJSON(w, st) //nolint:errcheck // response already committed
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
	st := l.Status()
	image, err := l.Journal()
	if err != nil {
		shardError(w, http.StatusInternalServerError, "internal", "%v", err)
		return
	}
	if offset > int64(len(image)) {
		// The journal can only grow; an offset past the end means the
		// caller is confused about which lease it polls.
		shardError(w, http.StatusBadRequest, "invalid_request",
			"offset %d beyond journal end %d", offset, len(image))
		return
	}
	st.Lease, st.Journal, st.Offset = id, image[offset:], int64(len(image))
	writeJSON(w, st) //nolint:errcheck // response already committed
}

// handleShardRelease serves DELETE /v1/shard?lease=...: the coordinator
// is done with the lease (journal merged or shard abandoned).
func (s *Server) handleShardRelease(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("lease")
	if id == "" {
		shardError(w, http.StatusBadRequest, "invalid_request", "lease is required")
		return
	}
	l, ok := s.shards.drop(id, "lease released")
	if !ok {
		shardError(w, http.StatusNotFound, "not_found", "no such lease %q (expired or released)", id)
		return
	}
	st := l.Status()
	st.Lease = id
	writeJSON(w, st) //nolint:errcheck // response already committed
}
