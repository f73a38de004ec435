// Package kernel simulates the operating-system memory-management layer
// Sentinel modifies in Linux v5.6: page tables over a two-tier physical
// memory, poison-bit (PTE bit 51) access counting driven by protection
// faults, move_pages()-style page migration, and page pinning.
//
// Virtual pages are tracked as run-length-encoded extents rather than
// individual page structs, so simulating address spaces of hundreds of
// gigabytes stays O(live tensors), not O(pages).
package kernel

import (
	"errors"
	"fmt"
	"math"

	"sentinel/internal/memsys"
	"sentinel/internal/simtime"
	"sentinel/internal/trace"
)

// ErrAlreadyMapped reports a Map whose page range overlaps an existing
// mapping. Callers distinguish it from capacity failures with errors.Is.
var ErrAlreadyMapped = errors.New("kernel: range already mapped")

// Page geometry. 4 KiB pages, as on the paper's x86 platform.
const (
	PageShift = 12
	PageSize  = int64(1) << PageShift
)

// PageID is a virtual page number.
type PageID int64

// PageOf returns the page containing a virtual address.
func PageOf(addr int64) PageID { return PageID(addr >> PageShift) }

// PageSpan returns the page range [first, last] covering [addr, addr+size).
func PageSpan(addr, size int64) (first, last PageID) {
	if size <= 0 {
		size = 1
	}
	return PageOf(addr), PageOf(addr + size - 1)
}

// MapID names one mapping: the page range of one successful Map call.
// The allocator maps one chunk or one page-aligned tensor per call, so a
// tensor's mapping answers residency questions about its pages from
// counts instead of a walk over runs. A full Unmap recycles the id.
type MapID int32

// NoMap stands for "no single mapping", e.g. a region that spans two.
const NoMap MapID = -1

// MapCounts is one mapping's page census. A page is fast while its run's
// tier is fast, so a page leaving on an outbound migration stays fast
// until the migration settles, and an inbound page counts as fast from
// submit. The counts are exact after every change of run state (Map,
// Unmap, migrate submit, lazy settle, Relocate), whether or not the runs
// concerned have been settled yet.
type MapCounts struct {
	// First and Last are the page range Map was called with.
	First, Last PageID
	// Pages is the mapping's mapped page count (less than the range after
	// a partial Unmap).
	Pages int32
	// FastOrInbound counts pages on fast memory (outbound ones included
	// until they settle) or on their way there.
	FastOrInbound int32
	// Inbound and Outbound count pages in flight toward fast and slow.
	Inbound, Outbound int32
}

// mapping is one entry of the mapping table.
type mapping struct {
	MapCounts
	// next is, while the id is released, the id released before it
	// (NoMap at the end of the chain).
	next MapID
}

// run is a maximal extent of mapped virtual pages with uniform state.
// The interval is [start, end) in page numbers.
type run struct {
	start, end PageID
	tier       memsys.Tier
	// pending describes an in-flight migration: at pendingUntil the run
	// becomes resident on pendingTier. Settled lazily.
	pendingUntil simtime.Time
	pendingTier  memsys.Tier
	migrating    bool
	pinned       bool
	poisoned     bool
	// m is the mapping the run belongs to; splits inherit it, and runs
	// never merge, so no run crosses a mapping boundary.
	m MapID
	// faults accumulates profiling protection faults per page of this
	// run (each main-memory access to a poisoned page faults once, and
	// the handler re-poisons the page).
	faultsPerPage int64
}

func (r *run) pages() int64 { return int64(r.end - r.start) }
func (r *run) bytes() int64 { return r.pages() * PageSize }

// pages32 is pages for the mapping counts; Map keeps a mapping, and so
// each of its runs, under 2^31 pages.
func (r *run) pages32() int32 { return int32(r.end - r.start) }

// TouchFunc observes page accesses; baselines such as IAL hook it to drive
// their active lists. The range is [first, last] inclusive.
type TouchFunc func(first, last PageID, write bool, at simtime.Time)

// Kernel is the simulated OS memory manager.
type Kernel struct {
	spec memsys.Spec
	runs []run // sorted by start, disjoint
	// ends mirrors runs[i].end in a dense slice: findIdx sits under every
	// range operation, and binary-searching 8-byte keys instead of 48-byte
	// run structs keeps the probes inside a few cache lines. Maintained by
	// the three structural mutators (Map insert, Unmap remove, splitRun).
	ends []PageID
	// hint memoizes findIdx answers; entries are revalidated before use.
	hint [hintSlots]int32
	used [2]int64
	// maps holds each mapping's counts, indexed by MapID. The ids of
	// fully unmapped mappings form a chain from free through their
	// entries, reused last in, first out.
	maps []mapping
	free MapID
	// in moves pages slow->fast, out fast->slow; independent channels
	// mirroring Sentinel's two migration helper threads.
	in, out *memsys.Channel

	onTouch   TouchFunc
	profiling bool
	faults    int64 // total profiling faults taken
	// sink emits migration and fault events into the unified trace bus
	// when attached (SetTrace); nil discards.
	sink *trace.Sink
}

// New returns a kernel managing memory with the given machine spec.
func New(spec memsys.Spec) (*Kernel, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Kernel{
		spec: spec,
		// 256 entries (10 KiB) hold every mapping live at once in
		// resnet32's profiling step, where each tensor is a mapping,
		// so most kernels allocate the table once.
		maps: make([]mapping, 0, 256),
		free: NoMap,
		in:   memsys.NewChannel(spec.MigrationBW),
		out:  memsys.NewChannel(spec.MigrationBW),
	}, nil
}

// Spec returns the machine spec the kernel was built with.
func (k *Kernel) Spec() memsys.Spec { return k.spec }

// SetTrace attaches the kernel to a trace sink: migration batches are
// emitted as spans over their channel service time and profiling faults
// as counter events. A nil sink disables emission.
func (k *Kernel) SetTrace(s *trace.Sink) { k.sink = s }

// SetTouchHook installs a page-touch observer (nil to remove).
func (k *Kernel) SetTouchHook(f TouchFunc) { k.onTouch = f }

// SetProfiling enables or disables poison-fault accounting.
func (k *Kernel) SetProfiling(on bool) { k.profiling = on }

// Faults returns the total number of profiling protection faults taken.
func (k *Kernel) Faults() int64 { return k.faults }

// Used reports mapped bytes on the tier (including in-flight destinations).
func (k *Kernel) Used(t memsys.Tier) int64 { return k.used[t] }

// Free reports unmapped capacity remaining on the tier.
func (k *Kernel) Free(t memsys.Tier) int64 {
	if t == memsys.Fast {
		return k.spec.Fast.Size - k.used[memsys.Fast]
	}
	return k.spec.Slow.Size - k.used[memsys.Slow]
}

// InChannel returns the slow->fast migration channel.
func (k *Kernel) InChannel() *memsys.Channel { return k.in }

// OutChannel returns the fast->slow migration channel.
func (k *Kernel) OutChannel() *memsys.Channel { return k.out }

// Counts returns the page counts of a live mapping; ok is false for
// NoMap.
func (k *Kernel) Counts(m MapID) (c MapCounts, ok bool) {
	if m == NoMap {
		return MapCounts{}, false
	}
	return k.maps[m].MapCounts, true
}

// MapOf returns the mapping that holds every page of [first, last], or
// NoMap when no single mapping does.
//
//perf:hot
func (k *Kernel) MapOf(first, last PageID) MapID {
	i := k.findIdx(first)
	if i == len(k.runs) || k.runs[i].start > first || !k.Holds(k.runs[i].m, first, last) {
		return NoMap
	}
	return k.runs[i].m
}

// Holds reports whether mapping m holds every page of [first, last]. It
// is exact for any id: one never mapped or released holds no page, and a
// reused one's counts are its new mapping's.
//
//perf:hot
func (k *Kernel) Holds(m MapID, first, last PageID) bool {
	if m < 0 || int(m) >= len(k.maps) {
		return false
	}
	// A mapping with no page unmapped owns every page of its range.
	c := &k.maps[m]
	return c.First <= first && last <= c.Last && int64(c.Pages) == int64(c.Last-c.First)+1
}

// settle commits a run's pending migration if it completed by instant at.
//
//perf:hot
func (k *Kernel) settle(r *run, at simtime.Time) {
	if r.migrating && r.pendingUntil <= at {
		k.land(r)
	}
}

// land commits a run's pending migration now: it settles, or Relocate
// cancels it (the pages count as arrived).
func (k *Kernel) land(r *run) {
	m := &k.maps[r.m]
	if r.pendingTier == memsys.Fast {
		m.Inbound -= r.pages32()
	} else {
		m.Outbound -= r.pages32()
		m.FastOrInbound -= r.pages32()
	}
	r.tier = r.pendingTier
	r.migrating = false
}

// Run-index hints: a direct-mapped table of findIdx answers keyed by a
// multiplicative hash of the queried page. 1024 int32 slots are 4 KiB.
// Over the first three steps of seven engine cells (the steady-steps
// benchmark's cells without chaos) the hit rates were 64 slots 78%,
// 256 slots 82%, 1024 slots 86%, 4096 slots 89%.
const (
	hintBits  = 10
	hintSlots = 1 << hintBits
)

// findIdx returns the index of the first run with end > page.
//
// It first reads page's hint slot and returns the stored index i only if
// i < len(ends), ends[i] > page, and i == 0 or ends[i-1] <= page. That is
// findIdx's postcondition, and since ends is strictly increasing exactly
// one index meets it: a stale or colliding hint costs a binary search
// but can never change the answer, so no mutator maintains the table. A
// miss runs a hand-rolled binary search (sort.Search's closure
// indirection showed up at ~13% of sweep CPU) and stores its answer.
//
//perf:hot
func (k *Kernel) findIdx(page PageID) int {
	ends := k.ends
	slot := &k.hint[uint64(page)*0x9E3779B97F4A7C15>>(64-hintBits)]
	if i := int(*slot); i < len(ends) && ends[i] > page && (i == 0 || ends[i-1] <= page) {
		return i
	}
	lo, hi := 0, len(ends)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ends[mid] > page {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	*slot = int32(lo)
	return lo
}

// splitRun splits run i at page, which must lie strictly inside it; the
// left half lands at index i, the right half at i+1.
//
//perf:hot
func (k *Kernel) splitRun(i int, page PageID) {
	r := &k.runs[i]
	left := *r
	left.end = page
	r.start = page
	k.runs = append(k.runs, run{})
	copy(k.runs[i+1:], k.runs[i:])
	k.runs[i] = left
	k.ends = append(k.ends, 0)
	copy(k.ends[i+1:], k.ends[i:])
	k.ends[i] = page
}

// Map maps the page range [first, last] onto the given tier as one new
// mapping and returns its id. It fails if any page is already mapped or
// the tier lacks capacity.
func (k *Kernel) Map(first, last PageID, tier memsys.Tier) (MapID, error) {
	if last < first {
		return NoMap, fmt.Errorf("kernel: map: invalid range [%d,%d]", first, last)
	}
	if int64(last-first) >= math.MaxInt32 {
		return NoMap, fmt.Errorf("kernel: map: [%d,%d] spans 2^31 pages or more", first, last)
	}
	n := (int64(last-first) + 1) * PageSize
	if k.Free(tier) < n {
		return NoMap, fmt.Errorf("kernel: map: %s full (need %s, free %s)", tier, simtime.Bytes(n), simtime.Bytes(k.Free(tier)))
	}
	i := k.findIdx(first)
	if i < len(k.runs) && k.runs[i].start <= PageID(last) {
		return NoMap, fmt.Errorf("%w: [%d,%d] overlaps run [%d,%d)", ErrAlreadyMapped, first, last, k.runs[i].start, k.runs[i].end)
	}
	c := MapCounts{First: first, Last: last, Pages: int32(n >> PageShift)}
	if tier == memsys.Fast {
		c.FastOrInbound = c.Pages
	}
	m := k.free
	if m != NoMap {
		k.free = k.maps[m].next
		k.maps[m] = mapping{MapCounts: c}
	} else {
		m = MapID(len(k.maps))
		k.maps = append(k.maps, mapping{MapCounts: c})
	}
	k.runs = append(k.runs, run{})
	copy(k.runs[i+1:], k.runs[i:])
	k.runs[i] = run{start: first, end: last + 1, tier: tier, m: m}
	k.ends = append(k.ends, 0)
	copy(k.ends[i+1:], k.ends[i:])
	k.ends[i] = last + 1
	k.used[tier] += n
	return m, nil
}

// Unmap releases the page range [first, last]. Unmapped holes inside the
// range are ignored, mirroring munmap semantics.
func (k *Kernel) Unmap(first, last PageID, at simtime.Time) {
	i := k.findIdx(first)
	if i < len(k.runs) && k.runs[i].start < first {
		k.splitRun(i, first)
		i++
	}
	for i < len(k.runs) && k.runs[i].start <= last {
		if k.runs[i].end > last+1 {
			k.splitRun(i, last+1)
		}
		r := &k.runs[i]
		k.settle(r, at)
		k.used[r.tier] -= r.bytes()
		k.unmapRun(r)
		k.runs = append(k.runs[:i], k.runs[i+1:]...)
		k.ends = append(k.ends[:i], k.ends[i+1:]...)
	}
}

// unmapRun takes a run about to be removed out of its mapping's counts,
// recycling the mapping's id once no page of it is left.
func (k *Kernel) unmapRun(r *run) {
	m := &k.maps[r.m]
	p := r.pages32()
	m.Pages -= p
	// Inbound runs sit on slow and outbound ones on fast until settled.
	if r.tier == memsys.Fast || r.migrating {
		m.FastOrInbound -= p
	}
	if r.migrating && r.pendingTier == memsys.Fast {
		m.Inbound -= p
	} else if r.migrating {
		m.Outbound -= p
	}
	if m.Pages == 0 {
		m.next = k.free
		k.free = r.m
	}
}

// forRange applies f to every mapped run overlapping [first, last],
// splitting runs straddling the range boundaries so f sees only
// fully-contained runs. Mutators that change part of a run's state must
// use this. Splits happen in place off the single entry search — the
// boundary positions (and so the resulting run table) are exactly those
// of a split-then-scan implementation, at one binary search instead of
// three.
//
//perf:hot
func (k *Kernel) forRange(first, last PageID, f func(r *run)) {
	i := k.findIdx(first)
	if i < len(k.runs) && k.runs[i].start < first {
		// The entry run straddles first (findIdx guarantees end >
		// first); keep its left half and start from the right.
		k.splitRun(i, first)
		i++
	}
	for ; i < len(k.runs) && k.runs[i].start <= last; i++ {
		if k.runs[i].end > last+1 {
			// Straddles the range end: visit only the left half; the
			// right half starts past last, ending the scan.
			k.splitRun(i, last+1)
		}
		f(&k.runs[i])
	}
}

// forOverlap applies f to every mapped run overlapping [first, last] with
// the count of overlapping pages, without splitting. Read-only queries use
// this so they never fragment the run table: a run's state is uniform, so
// partial overlap is pure arithmetic. (settle inside f is still fine — it
// commits a whole-run transition.)
//
//perf:hot
func (k *Kernel) forOverlap(first, last PageID, f func(r *run, pages int64)) {
	for i := k.findIdx(first); i < len(k.runs) && k.runs[i].start <= last; i++ {
		r := &k.runs[i]
		lo, hi := r.start, r.end
		if lo < first {
			lo = first
		}
		if hi > last+1 {
			hi = last + 1
		}
		f(r, int64(hi-lo))
	}
}

// TierBytes apportions the bytes of [addr, addr+size) across tiers as
// resident at instant at. Unmapped bytes are reported as slow (the engine
// treats them as an error elsewhere).
//
//perf:hot
func (k *Kernel) TierBytes(addr, size int64, at simtime.Time) (fast, slow int64) {
	first, last := PageSpan(addr, size)
	i := k.findIdx(first)
	// Most tensors sit inside one run: that run's tier holds every byte.
	if i < len(k.runs) && k.runs[i].start <= first && k.runs[i].end > last {
		r := &k.runs[i]
		k.settle(r, at)
		if r.tier == memsys.Fast {
			return size, 0
		}
		return 0, size
	}
	var fastPages, totalPages int64
	// Open-coded forOverlap: this runs once per tensor access in the
	// engine's op loop, and the per-run closure call was measurable.
	for ; i < len(k.runs) && k.runs[i].start <= last; i++ {
		r := &k.runs[i]
		k.settle(r, at)
		lo, hi := r.start, r.end
		if lo < first {
			lo = first
		}
		if hi > last+1 {
			hi = last + 1
		}
		totalPages += int64(hi - lo)
		if r.tier == memsys.Fast {
			fastPages += int64(hi - lo)
		}
	}
	if totalPages == 0 {
		return 0, size
	}
	fast = size * fastPages / totalPages
	return fast, size - fast
}

// ResidentFastBy returns the earliest instant at which every mapped page of
// [first,last] is resident on fast memory given already-issued migrations,
// and whether that ever happens (false if some page is on slow with no
// pending migration).
//
// This stays on the splitting path deliberately, although it reads no
// per-page state: the boundary splits it leaves behind decide how later
// migrations of overlapping ranges fragment into channel submissions,
// which is observable in transfer completion times. The golden experiment
// tables pin that behavior.
func (k *Kernel) ResidentFastBy(first, last PageID, at simtime.Time) (ready simtime.Time, ok bool) {
	ready = at
	ok = true
	k.forRange(first, last, func(r *run) {
		k.settle(r, at)
		switch {
		case r.tier == memsys.Fast:
		case r.migrating && r.pendingTier == memsys.Fast:
			if r.pendingUntil > ready {
				ready = r.pendingUntil
			}
		default:
			ok = false
		}
	})
	return ready, ok
}

// Pin marks the page range as unmovable (the reserved short-lived pool, or
// mlock()ed pinned memory). Migrate skips pinned runs.
func (k *Kernel) Pin(first, last PageID, pinned bool) {
	k.forRange(first, last, func(r *run) { r.pinned = pinned })
}

// Poison sets the poison bit on the range; the next access to each page
// takes a protection fault when profiling is enabled.
func (k *Kernel) Poison(first, last PageID) {
	k.forRange(first, last, func(r *run) { r.poisoned = true })
}

// ClearPoison clears the poison bit on every mapped page. The initial
// profiling step leaves its bits set (only fault *accounting* is switched
// off afterwards, as in the real kernel patch); sampled online
// re-profiling clears everything first so that only its deterministic
// sample faults, and clears again when the round finishes.
func (k *Kernel) ClearPoison() {
	for i := range k.runs {
		k.runs[i].poisoned = false
	}
}

// Touch records main-memory accesses to [addr, addr+size): it drives the
// touch hook, and during profiling it takes one protection fault per page
// per access (the fault handler re-poisons, so every access faults). It
// returns the number of faults taken, whose cost the engine charges to the
// running op.
//
//perf:hot
func (k *Kernel) Touch(addr, size int64, accesses int, write bool, at simtime.Time) (faults int64) {
	if accesses <= 0 {
		return 0
	}
	first, last := PageSpan(addr, size)
	if k.onTouch != nil {
		k.onTouch(first, last, write, at)
	}
	if !k.profiling {
		return 0
	}
	k.forRange(first, last, func(r *run) {
		if !r.poisoned {
			return
		}
		n := r.pages() * int64(accesses)
		r.faultsPerPage += int64(accesses)
		faults += n
	})
	k.faults += faults
	if faults > 0 {
		k.sink.Emit(trace.Event{At: at, Kind: trace.KFault, Tensor: trace.NoTensor,
			Count: faults, Bytes: size})
	}
	return faults
}

// FaultCounts returns the per-page profiling fault count recorded for
// [addr, addr+size), summed over pages. With page-aligned allocation this
// is exactly the tensor's main-memory access count times its page count.
func (k *Kernel) FaultCounts(addr, size int64) int64 {
	first, last := PageSpan(addr, size)
	var total int64
	k.forOverlap(first, last, func(r *run, pages int64) {
		total += r.faultsPerPage * pages
	})
	return total
}

// MigrateStats reports what a migration of [addr, addr+size) to dst would
// move at instant at: bytes actually on the other tier, excluding pinned
// pages.
func (k *Kernel) MigrateStats(addr, size int64, dst memsys.Tier, at simtime.Time) (movable int64) {
	first, last := PageSpan(addr, size)
	k.forOverlap(first, last, func(r *run, pages int64) {
		k.settle(r, at)
		if r.pinned || r.tier == dst || r.migrating {
			return
		}
		movable += pages * PageSize
	})
	return movable
}

// MigrateUrgent is Migrate with demand-fault priority: the transfer
// preempts queued prefetch traffic on the channel (completing after its
// own transfer time) instead of waiting behind it.
func (k *Kernel) MigrateUrgent(addr, size int64, dst memsys.Tier, at simtime.Time) (done simtime.Time, moved, shortfall int64) {
	return k.migrate(addr, size, dst, at, true)
}

// Migrate moves the pages of [addr, addr+size) to dst asynchronously,
// mirroring move_pages(). Pages already on dst, pinned, or mid-migration
// are skipped. Capacity on dst is reserved at submit time; source capacity
// is released at submit time as well (the simulation's accounting is
// instantaneous even though residency switches at the returned completion
// instant). Returns the completion instant and the bytes queued; if dst is
// full, it migrates what fits (in address order) and reports the shortfall.
func (k *Kernel) Migrate(addr, size int64, dst memsys.Tier, at simtime.Time) (done simtime.Time, moved, shortfall int64) {
	return k.migrate(addr, size, dst, at, false)
}

func (k *Kernel) migrate(addr, size int64, dst memsys.Tier, at simtime.Time, urgent bool) (done simtime.Time, moved, shortfall int64) {
	first, last := PageSpan(addr, size)
	ch := k.in
	if dst == memsys.Slow {
		ch = k.out
	}
	// The channel serializes transfers, so this batch is serviced starting
	// at its head-of-line instant: behind queued traffic for ordinary
	// migrations, immediately for urgent (demand) ones. Captured before
	// submitting so the emitted span covers exactly this batch.
	svc := at
	if !urgent && ch.BusyUntil() > svc {
		svc = ch.BusyUntil()
	}
	done = at
	k.forRange(first, last, func(r *run) {
		k.settle(r, at)
		if r.pinned || r.migrating || r.tier == dst {
			return
		}
		n := r.bytes()
		if k.Free(dst) < n {
			shortfall += n
			return
		}
		k.used[r.tier] -= n
		k.used[dst] += n
		var complete simtime.Time
		if urgent {
			complete = ch.SubmitUrgent(at, n)
		} else {
			complete = ch.Submit(at, n)
		}
		if dst == memsys.Fast {
			k.maps[r.m].Inbound += r.pages32()
			k.maps[r.m].FastOrInbound += r.pages32()
		} else {
			k.maps[r.m].Outbound += r.pages32()
		}
		r.migrating = true
		r.pendingTier = dst
		r.pendingUntil = complete
		moved += n
		if complete > done {
			done = complete
		}
	})
	if moved > 0 && k.sink.Enabled() {
		kind := trace.KMigrateIn
		if dst == memsys.Slow {
			kind = trace.KMigrateOut
		}
		k.sink.Emit(trace.Event{At: svc, Dur: done.Sub(svc), Kind: kind,
			Tensor: trace.NoTensor, Bytes: moved})
	}
	return done, moved, shortfall
}

// ShrinkFast permanently removes up to n bytes of fast-tier capacity,
// modelling co-tenant memory pressure appearing mid-run. The tier never
// shrinks below one page. Already-mapped pages stay mapped, so Free(Fast)
// can go negative until the engine evicts down to the new ceiling.
// Returns the bytes actually removed.
func (k *Kernel) ShrinkFast(n int64) int64 {
	if max := k.spec.Fast.Size - PageSize; n > max {
		n = max
	}
	if n <= 0 {
		return 0
	}
	k.spec.Fast.Size -= n
	return n
}

// ChargeChannel occupies the migration channel toward dst with n bytes of
// traffic that moves no pages — the wasted service time of a transiently
// failed migration batch (the data crossed the interconnect, then was
// thrown away). Urgent charges take the preempting derated fault path;
// ordinary ones queue behind pending prefetch traffic. Returns the
// instant the wasted transfer completes.
func (k *Kernel) ChargeChannel(dst memsys.Tier, n int64, at simtime.Time, urgent bool) simtime.Time {
	if n <= 0 {
		return at
	}
	ch := k.in
	if dst == memsys.Slow {
		ch = k.out
	}
	if urgent {
		return ch.SubmitUrgent(at, n)
	}
	return ch.Submit(at, n)
}

// Relocate instantly reassigns the pages of [addr, addr+size) to dst
// without a transfer. It models placing data that need not be copied: a
// freshly allocated tensor (no contents yet) or a recomputed one
// (Capuchin regenerates the values instead of transferring them). Pinned
// pages are skipped; a pending migration of the range is cancelled — its
// data is about to be overwritten anyway. Returns bytes relocated and the
// bytes that did not fit on dst.
func (k *Kernel) Relocate(addr, size int64, dst memsys.Tier, at simtime.Time) (moved, shortfall int64) {
	first, last := PageSpan(addr, size)
	k.forRange(first, last, func(r *run) {
		k.settle(r, at)
		if r.migrating {
			// Cancel: residency accounting already reflects the
			// pending destination.
			k.land(r)
		}
		if r.pinned || r.tier == dst {
			return
		}
		n := r.bytes()
		if k.Free(dst) < n {
			shortfall += n
			return
		}
		k.used[r.tier] -= n
		k.used[dst] += n
		if dst == memsys.Fast {
			k.maps[r.m].FastOrInbound += r.pages32()
		} else {
			k.maps[r.m].FastOrInbound -= r.pages32()
		}
		r.tier = dst
		moved += n
	})
	return moved, shortfall
}

// FirstOnTier returns the lowest-addressed mapped, unpinned, settled run
// resident on the tier — the scan primitive page-level demotion policies
// (active lists) fall back to when their bookkeeping goes stale.
func (k *Kernel) FirstOnTier(tier memsys.Tier, at simtime.Time) (addr, size int64, ok bool) {
	for i := range k.runs {
		r := &k.runs[i]
		k.settle(r, at)
		if r.pinned || r.migrating || r.tier != tier {
			continue
		}
		return int64(r.start) << PageShift, r.bytes(), true
	}
	return 0, 0, false
}

// Runs returns the number of mapped runs; exported for tests and
// fragmentation diagnostics.
func (k *Kernel) Runs() int { return len(k.runs) }

// MappedBytes returns total mapped bytes across both tiers.
func (k *Kernel) MappedBytes() int64 { return k.used[memsys.Fast] + k.used[memsys.Slow] }

// ResetCounters clears fault counters and migration channel statistics,
// keeping mappings; used between profiling and training phases.
func (k *Kernel) ResetCounters() {
	k.faults = 0
	for i := range k.runs {
		k.runs[i].faultsPerPage = 0
	}
}
