// Package alloc simulates the framework memory allocator. Three modes
// reproduce the three allocation regimes in the paper:
//
//   - Packed: a BFC-style best-fit allocator with 256-byte rounding and
//     block reuse, as TensorFlow uses by default. Small tensors with
//     unrelated lifetimes end up sharing pages — the source of page-level
//     false sharing (Observation 3).
//   - PageAligned: every tensor starts on a fresh page and occupies whole
//     pages. Used during Sentinel's profiling step so page-level access
//     counts become tensor-level counts ("each memory page has only one
//     tensor").
//   - Grouped: Sentinel's post-profiling reorganization. Tensors are
//     packed only within their group (same lifetime class and layer
//     residence), so no page is shared across groups; short-lived tensors
//     go to a reserved, pinned pool in fast memory.
package alloc

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"

	"sentinel/internal/kernel"
	"sentinel/internal/memsys"
	"sentinel/internal/simtime"
	"sentinel/internal/tensor"
	"sentinel/internal/trace"
)

// Mode selects the allocation regime.
type Mode int

const (
	// Packed is the default BFC-style allocator.
	Packed Mode = iota
	// PageAligned gives every tensor exclusive whole pages.
	PageAligned
	// Grouped packs tensors only within caller-defined groups.
	Grouped
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Packed:
		return "packed"
	case PageAligned:
		return "page-aligned"
	case Grouped:
		return "grouped"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Region is a tensor's virtual address range.
type Region struct {
	Addr, Size int64
}

// End returns the first address past the region.
func (r Region) End() int64 { return r.Addr + r.Size }

// Pages returns the page span covering the region.
func (r Region) Pages() (first, last kernel.PageID) {
	return kernel.PageSpan(r.Addr, r.Size)
}

// bfcRound is TensorFlow BFC's allocation rounding.
const bfcRound = 256

// minChunk is the granularity at which arenas grow; one growth maps this
// many bytes of fresh pages at once, like BFC's region extension.
const minChunk = 64 * kernel.PageSize

// GroupFunc assigns a tensor to an arena group (Grouped mode).
type GroupFunc func(*tensor.Tensor) string

// TierFunc chooses the tier for freshly mapped pages backing a tensor.
type TierFunc func(*tensor.Tensor) memsys.Tier

// PinFunc reports whether a group's pages must be pinned (the reserved
// short-lived pool).
type PinFunc func(group string) bool

// Config configures an allocator.
type Config struct {
	Mode Mode
	// Group assigns arena groups in Grouped mode; ignored otherwise. It
	// must answer the same for a tensor until the next Reconfigure: Alloc
	// resolves each tensor's arena once per configuration.
	Group GroupFunc
	// Tier chooses placement of new pages. Defaults to always-slow,
	// matching "before the training happens, tensors are allocated in
	// slow memory".
	Tier TierFunc
	// Pin marks pinned groups (Grouped mode).
	Pin PinFunc
}

type block struct{ addr, size int64 }

// chunk is a block of pages mapped for an arena by one kernel Map.
type chunk struct {
	block
	m kernel.MapID
}

// arenaKey identifies a packing domain without building a string per
// lookup: the Reconfigure generation plus, in Grouped mode, the
// caller-visible group or, in Packed mode, the BFC size class.
type arenaKey struct {
	gen   int32
	bin   int    // Packed: 0 for the small bin, else 1+log2(size>>18)
	group string // Grouped: the configuration's group
}

// arena is one packing domain: a free list over chunks of mapped pages.
type arena struct {
	name   string   // display name "g<gen>/<group>", built once
	key    arenaKey // map key, kept for deletion in Reconfigure
	free   []block  // sorted by addr, coalesced
	chunks []chunk  // the arena's mapped chunks, sorted by addr
	bytes  int64    // sum of chunk sizes, maintained by grow/reclaim
	live   int      // live allocations
	pin    bool
}

// allocation records where a tensor went and which arena owns the space,
// so frees remain correct across Reconfigure. Free clears only live; the
// other fields are rewritten by the next Alloc.
type allocation struct {
	region Region
	// cacheAr memoizes the arena this tensor id resolved to in generation
	// cacheGen: step-cycled tensors are re-allocated every step under the
	// same policy, and the group-string render plus map lookup dominated
	// the packed Alloc path. The memo holds because a configuration's
	// Group function answers the same for a tensor until the next
	// Reconfigure, which bumps the generation, so a stale pointer can
	// never be used after its arena is torn down. While the allocation is
	// live and not page-aligned, cacheAr is its arena.
	cacheAr  *arena
	cacheGen int32
	// m is the kernel mapping holding every page of region, or
	// kernel.NoMap when the region spans two chunks.
	m           kernel.MapID
	live        bool
	pageAligned bool
}

// Allocator simulates the framework allocator against the kernel.
type Allocator struct {
	k   *kernel.Kernel
	now func() simtime.Time
	cfg Config
	gen int32 // bumped by Reconfigure; prefixes arena names
	// arenas resolves (generation, group) to a packing domain; arenaList
	// holds the same arenas sorted by name, so reclamation and teardown
	// iterate deterministically without re-sorting per call.
	arenas    map[arenaKey]*arena
	arenaList []*arena
	// regions is indexed by tensor ID — IDs are assigned densely by the
	// graph builder, so a flat slice replaces a per-tensor map on the
	// hottest allocator path.
	regions   []allocation
	liveCount int
	// nextPage is the global bump pointer for fresh chunks; arenas own
	// disjoint chunks carved from it.
	nextPage kernel.PageID
	// failedTier counts allocations that fell back to the other tier
	// because the requested tier was full.
	failedTier int64
	// sink emits arena growth, reclamation, and placement events into the
	// unified trace bus when attached (SetTrace); nil discards.
	sink *trace.Sink
	// usage memoizes ArenaBytes' answer; usageDirty is raised by every
	// mutation of the arena set or of a per-arena byte total (grow,
	// reclaim, insertArena, Reconfigure), so repeated diagnostic reads
	// between mutations are allocation-free.
	usage      []ArenaUsage
	usageDirty bool
}

// New returns an allocator over the kernel.
func New(k *kernel.Kernel, cfg Config) *Allocator {
	if cfg.Tier == nil {
		cfg.Tier = func(*tensor.Tensor) memsys.Tier { return memsys.Slow }
	}
	return &Allocator{
		k:        k,
		now:      func() simtime.Time { return 0 },
		cfg:      cfg,
		arenas:   make(map[arenaKey]*arena),
		nextPage: 1, // skip page 0 so addr 0 stays invalid
	}
}

// SetClock installs the virtual-time source used for tier queries during
// reclamation; the runtime wires its clock in.
func (a *Allocator) SetClock(now func() simtime.Time) {
	if now != nil {
		a.now = now
	}
}

// SetTrace attaches the allocator to a trace sink: arena growth and
// reclamation and per-tensor placement decisions are emitted as events. A
// nil sink disables emission.
func (a *Allocator) SetTrace(s *trace.Sink) { a.sink = s }

// traceTier maps a machine tier to its trace-schema tier.
func traceTier(t memsys.Tier) trace.Tier {
	if t == memsys.Fast {
		return trace.TierFast
	}
	return trace.TierSlow
}

// Reconfigure switches the allocation policy for future allocations —
// Sentinel's post-profiling data reorganization. Existing allocations stay
// where they are (re-addressing live tensors would create wild pointers);
// arenas with no live allocations are torn down and their pages unmapped.
// Mid-training tensors are allocated and freed every step, so calling this
// between steps reorganizes them all without impacting correctness.
func (a *Allocator) Reconfigure(cfg Config) {
	if cfg.Tier == nil {
		cfg.Tier = func(*tensor.Tensor) memsys.Tier { return memsys.Slow }
	}
	keep := a.arenaList[:0]
	for _, ar := range a.arenaList {
		if ar.live > 0 {
			keep = append(keep, ar)
			continue
		}
		for _, c := range ar.chunks {
			first, last := kernel.PageSpan(c.addr, c.size)
			if ar.pin {
				a.k.Pin(first, last, false)
			}
			a.k.Unmap(first, last, 0)
		}
		delete(a.arenas, ar.key)
	}
	// In-place filtering preserves the by-name sort order.
	for i := len(keep); i < len(a.arenaList); i++ {
		a.arenaList[i] = nil
	}
	a.arenaList = keep
	a.cfg = cfg
	a.gen++
	a.usageDirty = true
}

// Mode returns the configured mode.
func (a *Allocator) Mode() Mode { return a.cfg.Mode }

// TierFallbacks reports how many allocations could not be placed on their
// requested tier and fell back to the other one.
func (a *Allocator) TierFallbacks() int64 { return a.failedTier }

// bfcLargeThreshold splits BFC into a small-chunk and a large-chunk bin
// space, as TensorFlow's allocator does; small tensors only share pages
// with other small tensors, large ones share boundary pages with large
// ones.
const bfcLargeThreshold = 256 << 10

// keyOf resolves the arena of a packed or grouped allocation; Alloc calls
// it once per tensor per Reconfigure generation. Page-aligned allocations
// have no arena.
func (a *Allocator) keyOf(t *tensor.Tensor) arenaKey {
	switch {
	case a.cfg.Mode != Grouped:
		// BFC keeps per-size-class bins: one below bfcLargeThreshold,
		// one per power of two above it. Freed chunks are reused by
		// allocations of the same class, so page sharing happens within
		// a class and at class-chunk boundaries.
		return arenaKey{gen: a.gen, bin: bits.Len64(uint64(t.Size / bfcLargeThreshold))}
	case a.cfg.Group == nil:
		return arenaKey{gen: a.gen, group: "default"}
	default:
		return arenaKey{gen: a.gen, group: a.cfg.Group(t)}
	}
}

// Reserve pre-sizes the dense region table for n tensor IDs, avoiding
// incremental growth (and its zeroing churn) when the caller knows the
// graph's tensor count up front.
func (a *Allocator) Reserve(n int) {
	if n > len(a.regions) {
		grown := make([]allocation, n)
		copy(grown, a.regions)
		a.regions = grown
	}
}

// slot returns the allocation record for id, growing the dense region
// table as the graph builder hands out new IDs. Negative IDs (sentinels)
// return nil.
//
//perf:hot
func (a *Allocator) slot(id tensor.ID) *allocation {
	if id < 0 {
		return nil
	}
	if int(id) >= len(a.regions) {
		grown := make([]allocation, int(id)+1+len(a.regions)/2)
		copy(grown, a.regions)
		a.regions = grown
	}
	return &a.regions[id]
}

// insertArena adds ar to the by-name ordered list reclamation iterates.
func (a *Allocator) insertArena(ar *arena) {
	i := sort.Search(len(a.arenaList), func(i int) bool { return a.arenaList[i].name >= ar.name })
	a.arenaList = append(a.arenaList, nil)
	copy(a.arenaList[i+1:], a.arenaList[i:])
	a.arenaList[i] = ar
	a.usageDirty = true
}

func (a *Allocator) roundSize(size int64) int64 {
	if a.cfg.Mode == PageAligned {
		return (size + kernel.PageSize - 1) &^ (kernel.PageSize - 1)
	}
	return (size + bfcRound - 1) &^ (bfcRound - 1)
}

// grow extends the arena with fresh pages sized for need, mapping them on
// the requested tier (falling back to the other tier when full).
func (a *Allocator) grow(ar *arena, need int64, tier memsys.Tier) error {
	size := need
	if a.cfg.Mode != PageAligned && size < minChunk {
		size = minChunk
	}
	size = (size + kernel.PageSize - 1) &^ (kernel.PageSize - 1)
	pages := size >> kernel.PageShift
	first := a.nextPage
	last := first + kernel.PageID(pages) - 1
	placed := tier
	m, err := a.k.Map(first, last, tier)
	if err != nil {
		// Release cached dead chunks and retry before falling back to
		// the other tier, as a real allocator would rather than
		// failing the training step.
		a.Reclaim(tier, size)
		if m, err = a.k.Map(first, last, tier); err != nil {
			other := tier.Other()
			a.Reclaim(other, size)
			var err2 error
			if m, err2 = a.k.Map(first, last, other); err2 != nil {
				return fmt.Errorf("alloc: both tiers full: %v; %v", err, err2)
			}
			placed = other
			a.failedTier++
		}
	}
	if ar.pin {
		a.k.Pin(first, last, true)
	}
	a.nextPage = last + 1
	b := block{addr: int64(first) << kernel.PageShift, size: size}
	ar.chunks = append(ar.chunks, chunk{block: b, m: m})
	ar.bytes += size
	a.usageDirty = true
	a.freeInsert(ar, b)
	a.sink.Emit(trace.Event{At: a.now(), Kind: trace.KArenaGrow, Tensor: trace.NoTensor,
		Name: ar.name, Bytes: size, Tier: traceTier(placed)})
	return nil
}

// freeInsert adds a block to the arena free list, coalescing neighbours.
//
//perf:hot
func (a *Allocator) freeInsert(ar *arena, b block) {
	// Hand-rolled lower bound: this runs on every packed free, and the
	// sort.Search closure indirection was measurable in sweep profiles.
	i, hi := 0, len(ar.free)
	for i < hi {
		mid := int(uint(i+hi) >> 1)
		if ar.free[mid].addr >= b.addr {
			hi = mid
		} else {
			i = mid + 1
		}
	}
	// Merge into an adjacent neighbour in place; only a block touching
	// neither is inserted, and only one touching both deletes one.
	prev := i > 0 && ar.free[i-1].addr+ar.free[i-1].size == b.addr
	next := i < len(ar.free) && b.addr+b.size == ar.free[i].addr
	switch {
	case prev && next:
		ar.free[i-1].size += b.size + ar.free[i].size
		ar.free = append(ar.free[:i], ar.free[i+1:]...)
	case prev:
		ar.free[i-1].size += b.size
	case next:
		ar.free[i].addr = b.addr
		ar.free[i].size += b.size
	default:
		ar.free = append(ar.free, block{})
		copy(ar.free[i+1:], ar.free[i:])
		ar.free[i] = b
	}
}

// takeBestFit removes and returns a block of at least size bytes, best-fit;
// ok is false if none fits.
//
//perf:hot
func (a *Allocator) takeBestFit(ar *arena, size int64) (int64, bool) {
	best := -1
	for i := range ar.free {
		if ar.free[i].size >= size && (best < 0 || ar.free[i].size < ar.free[best].size) {
			best = i
		}
	}
	if best < 0 {
		return 0, false
	}
	b := &ar.free[best]
	addr := b.addr
	b.addr += size
	b.size -= size
	if b.size == 0 {
		ar.free = append(ar.free[:best], ar.free[best+1:]...)
	}
	return addr, true
}

// Alloc places the tensor and returns its region.
//
//perf:hot
func (a *Allocator) Alloc(t *tensor.Tensor) (Region, error) {
	rec := a.slot(t.ID)
	if rec == nil {
		return Region{}, fmt.Errorf("alloc: tensor %d (%s) has invalid id", t.ID, t.Name)
	}
	if rec.live {
		return Region{}, fmt.Errorf("alloc: tensor %d (%s) already allocated", t.ID, t.Name)
	}
	if a.cfg.Mode == PageAligned {
		// Exclusive whole pages, no arena: mapped here, unmapped on
		// free.
		size := a.roundSize(t.Size)
		pages := size >> kernel.PageShift
		first := a.nextPage
		last := first + kernel.PageID(pages) - 1
		tier := a.cfg.Tier(t)
		m, err := a.k.Map(first, last, tier)
		if err != nil {
			var err2 error
			if m, err2 = a.k.Map(first, last, tier.Other()); err2 != nil {
				return Region{}, fmt.Errorf("alloc: both tiers full: %v; %v", err, err2)
			}
			a.failedTier++
		}
		a.nextPage = last + 1
		r := Region{Addr: int64(first) << kernel.PageShift, Size: t.Size}
		rec.region, rec.m, rec.live, rec.pageAligned = r, m, true, true
		a.liveCount++
		return r, nil
	}

	ar := rec.cacheAr
	if ar == nil || rec.cacheGen != a.gen {
		key := a.keyOf(t)
		ar = a.arenas[key]
		if ar == nil {
			group := key.group
			if a.cfg.Mode != Grouped {
				group = "bfc-small"
				if key.bin > 0 {
					group = "bfc-large-" + strconv.Itoa(key.bin)
				}
			}
			ar = &arena{name: "g" + strconv.Itoa(int(a.gen)) + "/" + group, key: key}
			if a.cfg.Pin != nil {
				ar.pin = a.cfg.Pin(group)
			}
			a.arenas[key] = ar
			a.insertArena(ar)
		}
		rec.cacheAr, rec.cacheGen = ar, a.gen
	}
	size := a.roundSize(t.Size)
	addr, ok := a.takeBestFit(ar, size)
	if !ok {
		if err := a.grow(ar, size, a.cfg.Tier(t)); err != nil {
			return Region{}, err
		}
		addr, ok = a.takeBestFit(ar, size)
		if !ok {
			return Region{}, fmt.Errorf("alloc: internal: grow did not satisfy %d bytes", size)
		}
	}
	ar.live++
	r := Region{Addr: addr, Size: t.Size}
	// A step-cycled tensor mostly lands in the chunk it held last step.
	if first, last := r.Pages(); !a.k.Holds(rec.m, first, last) {
		rec.m = a.k.MapOf(first, last)
	}
	rec.region, rec.live, rec.pageAligned = r, true, false
	a.liveCount++
	if a.sink.Enabled() {
		a.sink.Emit(trace.Event{At: a.now(), Kind: trace.KPlace, Tensor: t.ID,
			Name: ar.name, Bytes: t.Size})
	}
	return r, nil
}

// Free releases the tensor's region back to its arena. Page-aligned
// allocations are unmapped immediately (shrinking the footprint); packed
// arenas retain their chunks for reuse, as BFC does.
//
//perf:hot
func (a *Allocator) Free(t *tensor.Tensor) error {
	if t.ID < 0 || int(t.ID) >= len(a.regions) || !a.regions[t.ID].live {
		return fmt.Errorf("alloc: tensor %d (%s) not allocated", t.ID, t.Name)
	}
	rec := &a.regions[t.ID]
	rec.live = false
	a.liveCount--
	if rec.pageAligned {
		size := (t.Size + kernel.PageSize - 1) &^ (kernel.PageSize - 1)
		first, last := kernel.PageSpan(rec.region.Addr, size)
		a.k.Unmap(first, last, 0)
		return nil
	}
	ar := rec.cacheAr
	if ar == nil {
		return fmt.Errorf("alloc: tensor %d (%s): arena missing", t.ID, t.Name)
	}
	ar.live--
	// Round with the rounding rules of the arena's generation; packed
	// arenas always use BFC rounding.
	size := (t.Size + bfcRound - 1) &^ (bfcRound - 1)
	a.freeInsert(ar, block{addr: rec.region.Addr, size: size})
	return nil
}

// Region reports the live region of a tensor.
func (a *Allocator) Region(id tensor.ID) (Region, bool) {
	if id < 0 || int(id) >= len(a.regions) || !a.regions[id].live {
		return Region{}, false
	}
	return a.regions[id].region, true
}

// RegionMap reports the live region of a tensor and the kernel mapping
// holding all of its pages (kernel.NoMap when the region spans two
// chunks).
//
//perf:hot
func (a *Allocator) RegionMap(id tensor.ID) (Region, kernel.MapID, bool) {
	if id < 0 || int(id) >= len(a.regions) || !a.regions[id].live {
		return Region{}, kernel.NoMap, false
	}
	rec := &a.regions[id]
	return rec.region, rec.m, true
}

// Live returns the number of live allocations.
func (a *Allocator) Live() int { return a.liveCount }

// ArenaCount reports the number of packing domains in use.
func (a *Allocator) ArenaCount() int { return len(a.arenas) }

// ArenaUsage is one arena's mapped footprint.
type ArenaUsage struct {
	Name  string
	Bytes int64
}

// ArenaBytes reports each arena's total mapped chunk bytes, sorted by
// arena name; a diagnostic for occupancy analysis. Totals are maintained
// incrementally by grow and reclaim, and the result slice is memoized:
// repeated calls between allocator mutations return the same backing
// array without allocating. The returned slice is owned by the allocator
// and is valid until the next mutation — callers must not modify it and
// should copy if they need to hold it across allocator calls.
func (a *Allocator) ArenaBytes() []ArenaUsage {
	if !a.usageDirty && a.usage != nil {
		return a.usage
	}
	a.usage = a.usage[:0]
	for _, ar := range a.arenaList {
		a.usage = append(a.usage, ArenaUsage{Name: ar.name, Bytes: ar.bytes})
	}
	a.usageDirty = false
	return a.usage
}

// chunkFree reports whether the chunk is entirely on the arena's free list
// (no live allocation inside), returning the covering free-block index.
func chunkFree(ar *arena, c block) (int, bool) {
	// Hand-rolled lower bound, as in freeInsert.
	i, hi := 0, len(ar.free)
	for i < hi {
		mid := int(uint(i+hi) >> 1)
		if ar.free[mid].addr+ar.free[mid].size > c.addr {
			hi = mid
		} else {
			i = mid + 1
		}
	}
	if i >= len(ar.free) {
		return 0, false
	}
	b := ar.free[i]
	return i, b.addr <= c.addr && b.addr+b.size >= c.addr+c.size
}

// Reclaim releases fully-free arena chunks whose pages sit on the given
// tier, unmapping them until at least need bytes of that tier are freed
// (or no more chunks qualify). This mirrors framework allocators returning
// cached regions to the driver under memory pressure. Pinned arenas are
// never reclaimed. Returns the bytes of the tier released.
func (a *Allocator) Reclaim(tier memsys.Tier, need int64) int64 {
	freed := a.reclaim(tier, need)
	if freed > 0 {
		a.sink.Emit(trace.Event{At: a.now(), Kind: trace.KArenaReclaim,
			Tensor: trace.NoTensor, Bytes: freed, Tier: traceTier(tier)})
	}
	return freed
}

func (a *Allocator) reclaim(tier memsys.Tier, need int64) int64 {
	var freed int64
	// Arena order decides which cached chunks go back first; iterate in
	// sorted name order so reclamation (and everything downstream of the
	// resulting memory layout) is deterministic across runs.
	for _, ar := range a.arenaList {
		if ar.pin {
			continue
		}
		for ci := 0; ci < len(ar.chunks); {
			if freed >= need {
				return freed
			}
			c := ar.chunks[ci]
			// A chunk without a fast or inbound page holds no fast byte
			// however its runs settle.
			if tier == memsys.Fast {
				if n, _ := a.k.Counts(c.m); n.FastOrInbound == 0 {
					ci++
					continue
				}
			}
			fi, ok := chunkFree(ar, c.block)
			if !ok {
				ci++
				continue
			}
			first, last := kernel.PageSpan(c.addr, c.size)
			fastB, slowB := a.k.TierBytes(c.addr, c.size, a.now())
			onTier := fastB
			if tier == memsys.Slow {
				onTier = slowB
			}
			if onTier == 0 {
				ci++
				continue
			}
			// Carve the chunk out of the covering free block.
			b := ar.free[fi]
			ar.free = append(ar.free[:fi], ar.free[fi+1:]...)
			if b.addr < c.addr {
				a.freeInsert(ar, block{addr: b.addr, size: c.addr - b.addr})
			}
			if end := b.addr + b.size; end > c.addr+c.size {
				a.freeInsert(ar, block{addr: c.addr + c.size, size: end - (c.addr + c.size)})
			}
			a.k.Unmap(first, last, 0)
			ar.chunks = append(ar.chunks[:ci], ar.chunks[ci+1:]...)
			ar.bytes -= c.size
			a.usageDirty = true
			freed += onTier
		}
	}
	return freed
}
