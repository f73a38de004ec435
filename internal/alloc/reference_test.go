package alloc

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"sentinel/internal/kernel"
	"sentinel/internal/memsys"
	"sentinel/internal/simtime"
	"sentinel/internal/tensor"
)

// refFreeInsert is the insert-then-coalesce free-list insertion freeInsert
// replaced: insert the block at its address, then merge it with its
// successor and then with its predecessor.
func refFreeInsert(free []block, b block) []block {
	i := sort.Search(len(free), func(i int) bool { return free[i].addr >= b.addr })
	free = append(free, block{})
	copy(free[i+1:], free[i:])
	free[i] = b
	if i+1 < len(free) && free[i].addr+free[i].size == free[i+1].addr {
		free[i].size += free[i+1].size
		free = append(free[:i+1], free[i+2:]...)
	}
	if i > 0 && free[i-1].addr+free[i-1].size == free[i].addr {
		free[i-1].size += free[i].size
		free = append(free[:i], free[i+1:]...)
	}
	return free
}

// TestFreeListMatchesReference drives the allocator through random
// alloc, free, reclaim and Reconfigure sequences, with chunks migrated
// between tiers underneath, and replays each arena's free list beside it
// with refFreeInsert: after every op the two lists, and the region every
// Alloc returned, must agree. It also checks every live region's mapping
// id: the chunk (or page-aligned mapping) holding the region's pages, or
// kernel.NoMap only when no single chunk holds them.
func TestFreeListMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runFreeListReference(t, seed) })
	}
}

func runFreeListReference(t *testing.T, seed int64) {
	k := testKernel(t)
	rng := rand.New(rand.NewSource(seed))
	tierOf := func(ts *tensor.Tensor) memsys.Tier { return memsys.Tier(ts.Size % 2) }
	configs := []Config{
		{Mode: Packed, Tier: tierOf},
		{Mode: Grouped, Tier: tierOf, Group: func(ts *tensor.Tensor) string { return fmt.Sprint("g", ts.Size%3) }},
		{Mode: PageAligned, Tier: tierOf},
	}
	a := New(k, configs[0])
	ref := map[*arena][]block{}  // the reference free list per arena
	seen := map[*arena][]chunk{} // each arena's chunks after the last op
	// sync replays the arenas' chunk changes into the reference: chunks
	// reclaimed are carved out of their covering block, new chunks are
	// inserted; arenas torn down are dropped.
	sync := func() {
		kept := map[*arena]bool{}
		for _, ar := range a.arenaList {
			kept[ar] = true
			now := map[int64]bool{}
			for _, c := range ar.chunks {
				now[c.addr] = true
			}
			was := map[int64]bool{}
			for _, c := range seen[ar] {
				was[c.addr] = true
				if now[c.addr] {
					continue
				}
				free := ref[ar]
				i := sort.Search(len(free), func(i int) bool { return free[i].addr+free[i].size > c.addr })
				b := free[i]
				free = append(free[:i], free[i+1:]...)
				if b.addr < c.addr {
					free = refFreeInsert(free, block{b.addr, c.addr - b.addr})
				}
				if end := b.addr + b.size; end > c.addr+c.size {
					free = refFreeInsert(free, block{c.addr + c.size, end - (c.addr + c.size)})
				}
				ref[ar] = free
			}
			for _, c := range ar.chunks {
				if !was[c.addr] {
					ref[ar] = refFreeInsert(ref[ar], c.block)
				}
			}
			seen[ar] = append([]chunk(nil), ar.chunks...)
		}
		for ar := range seen {
			if !kept[ar] {
				delete(seen, ar)
				delete(ref, ar)
			}
		}
	}
	live := map[tensor.ID]*tensor.Tensor{}
	var order []tensor.ID // live ids in allocation order, for determinism
	next := tensor.ID(0)
	now := simtime.Time(0)
	for i := 0; i < 2000; i++ {
		now = now.Add(simtime.Duration(rng.Intn(200)) * simtime.Microsecond)
		switch op := rng.Intn(20); {
		case op < 10 || len(order) == 0: // alloc
			ts := mkTensor(int(next), int64(1+rng.Intn(100000)))
			next++
			if a.Mode() == PageAligned {
				if _, err := a.Alloc(ts); err != nil {
					continue
				}
				sync()
			} else {
				ar := a.arenaFor(ts)
				var want int64
				var fit bool
				if ar != nil {
					scratch := &arena{free: append([]block(nil), ref[ar]...)}
					want, fit = a.takeBestFit(scratch, a.roundSize(ts.Size))
				}
				r, err := a.Alloc(ts)
				if err != nil {
					sync()
					continue
				}
				ar = a.regions[ts.ID].cacheAr
				if !fit {
					// The arena grew (reclaiming elsewhere first) before
					// the best fit that placed the tensor.
					sync()
					scratch := &arena{free: append([]block(nil), ref[ar]...)}
					want, fit = a.takeBestFit(scratch, a.roundSize(ts.Size))
				}
				if !fit || want != r.Addr {
					t.Fatalf("op %d: Alloc placed %s at %d, reference best fit %d (fit %v)", i, ts.Name, r.Addr, want, fit)
				}
				sync()
				ref[ar] = takeAt(ref[ar], r.Addr, a.roundSize(ts.Size))
			}
			live[ts.ID] = ts
			order = append(order, ts.ID)
		case op < 16: // free
			j := rng.Intn(len(order))
			ts := live[order[j]]
			rec := a.regions[ts.ID]
			if err := a.Free(ts); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			if !rec.pageAligned {
				ref[rec.cacheAr] = refFreeInsert(ref[rec.cacheAr], block{rec.region.Addr, (ts.Size + bfcRound - 1) &^ (bfcRound - 1)})
			}
			sync()
			delete(live, ts.ID)
			order = append(order[:j], order[j+1:]...)
		case op < 18: // reclaim
			a.Reclaim(memsys.Tier(rng.Intn(2)), int64(rng.Intn(4<<20)))
			sync()
		case op < 19: // migrate a random page range under the allocator
			first := kernel.PageID(1 + rng.Intn(int(a.nextPage)))
			size := int64(1+rng.Intn(64)) * kernel.PageSize
			k.Migrate(int64(first)<<kernel.PageShift, size, memsys.Tier(rng.Intn(2)), now)
		default:
			a.Reconfigure(configs[rng.Intn(len(configs))])
			sync()
		}
		for _, ar := range a.arenaList {
			if got, want := ar.free, ref[ar]; !slices.Equal(got, want) {
				t.Fatalf("op %d: arena %s free list %v, reference %v", i, ar.name, got, want)
			}
		}
		for _, id := range order {
			checkMapID(t, i, k, &a.regions[id])
		}
	}
}

// arenaFor returns the arena a packed or grouped Alloc of ts would use, or
// nil if it does not exist yet.
func (a *Allocator) arenaFor(ts *tensor.Tensor) *arena {
	return a.arenas[a.keyOf(ts)]
}

// takeAt removes [addr, addr+size) from the front of the free block that
// starts at addr, as takeBestFit does with the block it picks.
func takeAt(free []block, addr, size int64) []block {
	for i := range free {
		if free[i].addr == addr {
			free[i].addr += size
			free[i].size -= size
			if free[i].size == 0 {
				free = append(free[:i], free[i+1:]...)
			}
			return free
		}
	}
	panic("takeAt: no free block at the address")
}

// checkMapID checks a live allocation's mapping id against the chunks of
// its arena, or against the kernel's record for a page-aligned tensor.
func checkMapID(t *testing.T, op int, k *kernel.Kernel, rec *allocation) {
	t.Helper()
	first, last := rec.region.Pages()
	if rec.pageAligned {
		c, ok := k.Counts(rec.m)
		if !ok || c.First != first || c.Last != last || int64(c.Pages) != int64(last-first)+1 {
			t.Fatalf("op %d: page-aligned region [%d,%d] has mapping %d %+v", op, first, last, rec.m, c)
		}
		return
	}
	holder := kernel.NoMap
	for _, c := range rec.cacheAr.chunks {
		cf, cl := kernel.PageSpan(c.addr, c.size)
		if cf <= first && last <= cl {
			holder = c.m
		}
	}
	if rec.m != holder {
		t.Fatalf("op %d: region [%d,%d] has mapping %d, the chunk holding it %d", op, first, last, rec.m, holder)
	}
}
