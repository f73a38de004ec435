package baseline

import (
	"sentinel/internal/alloc"
	"sentinel/internal/exec"
	"sentinel/internal/graph"
	"sentinel/internal/memsys"
	"sentinel/internal/simtime"
	"sentinel/internal/tensor"
)

// MemoryMode models Optane's Memory Mode: DRAM is a hardware-managed cache
// in front of PMM, invisible to software. Accesses to cached bytes run at
// DRAM speed; misses run at PMM speed plus a fill. The cache is managed at
// allocation-block granularity with LRU replacement (the real hardware is
// direct-mapped at 4 KiB/64 B granularity; LRU over blocks keeps the same
// qualitative behaviour — demand filling, no lifetime knowledge, dead data
// occupying cache — while staying cheap to simulate).
//
// Its weaknesses against Sentinel are structural: the first touch of every
// block is always slow, short-lived tensors churn the cache, and freed
// data stays cached until evicted by capacity pressure.
type MemoryMode struct {
	exec.Base
	capacity int64
	used     int64
	// entries holds the cached blocks as an LRU list linked by index:
	// head is the most recent, tail the least, and slots of evicted
	// blocks chain from free. -1 ends each chain.
	entries          []cacheEntry
	head, tail, free int32
	byAddr           map[int64]int32 // region addr -> entry index
}

type cacheEntry struct {
	addr, size int64
	prev, next int32
}

// NewMemoryMode returns the hardware-cached baseline.
func NewMemoryMode() *MemoryMode {
	return &MemoryMode{head: -1, tail: -1, free: -1, byAddr: make(map[int64]int32)}
}

// Name identifies the policy.
func (p *MemoryMode) Name() string { return "memory-mode" }

// AllocConfig packs BFC-style; nominal placement is all-PMM (the DRAM is
// not addressable in Memory Mode).
func (p *MemoryMode) AllocConfig(*graph.Graph) alloc.Config {
	return alloc.Config{
		Mode: alloc.Packed,
		Tier: func(*tensor.Tensor) memsys.Tier { return memsys.Slow },
	}
}

// Setup sizes the cache to the fast tier.
func (p *MemoryMode) Setup(rt *exec.Runtime) error {
	p.capacity = rt.Spec().Fast.Size
	return nil
}

// ModelAccess implements exec.AccessModeler: split the access between the
// DRAM cache and PMM and update the cache.
func (p *MemoryMode) ModelAccess(t *tensor.Tensor, r alloc.Region, readBytes, writeBytes int64, at simtime.Time) exec.AccessSplit {
	var sp exec.AccessSplit
	hit := p.lookup(r)
	total := readBytes + writeBytes
	if total == 0 {
		return sp
	}
	// Reads are served by the cache for the hit fraction and by PMM for
	// the rest; writes are write-allocated into DRAM (they run at DRAM
	// speed and the dirty data drains to PMM in the background, whose
	// cost surfaces as the Extra term below).
	sp.FastRead = int64(hit * float64(readBytes))
	sp.SlowRead = readBytes - sp.FastRead
	sp.FastWrite = writeBytes
	// Background costs, partially overlapped with execution: the fill of
	// missed read bytes and the writeback drain of one dirty copy.
	missBytes := sp.SlowRead
	drain := simtime.TransferTime(writeBytes/4, 3e9)
	sp.Extra = simtime.TransferTime(missBytes, 8e9)/4 + drain
	p.insert(r)
	return sp
}

// lookup returns the cached fraction of the region.
func (p *MemoryMode) lookup(r alloc.Region) float64 {
	if i, ok := p.byAddr[r.Addr]; ok {
		e := &p.entries[i]
		p.toFront(i)
		if e.size >= r.Size {
			return 1
		}
		return float64(e.size) / float64(r.Size)
	}
	return 0
}

// insert caches the region, evicting LRU entries to make room.
func (p *MemoryMode) insert(r alloc.Region) {
	if i, ok := p.byAddr[r.Addr]; ok {
		e := &p.entries[i]
		p.used += r.Size - e.size
		e.size = r.Size
		p.toFront(i)
	} else {
		i := p.free
		if i >= 0 {
			p.free = p.entries[i].next
		} else {
			i = int32(len(p.entries))
			p.entries = append(p.entries, cacheEntry{})
		}
		p.entries[i] = cacheEntry{addr: r.Addr, size: r.Size}
		p.link(i)
		p.byAddr[r.Addr] = i
		p.used += r.Size
	}
	for p.used > p.capacity && len(p.byAddr) > 1 {
		i := p.tail
		e := &p.entries[i]
		p.unlink(i)
		delete(p.byAddr, e.addr)
		p.used -= e.size
		e.next, p.free = p.free, i
	}
}

// link puts entry i at the head of the LRU list.
func (p *MemoryMode) link(i int32) {
	e := &p.entries[i]
	e.prev, e.next = -1, p.head
	if p.head >= 0 {
		p.entries[p.head].prev = i
	} else {
		p.tail = i
	}
	p.head = i
}

// unlink takes entry i out of the LRU list.
func (p *MemoryMode) unlink(i int32) {
	e := &p.entries[i]
	if e.prev >= 0 {
		p.entries[e.prev].next = e.next
	} else {
		p.head = e.next
	}
	if e.next >= 0 {
		p.entries[e.next].prev = e.prev
	} else {
		p.tail = e.prev
	}
}

// toFront marks entry i most recently used.
func (p *MemoryMode) toFront(i int32) {
	if p.head != i {
		p.unlink(i)
		p.link(i)
	}
}
