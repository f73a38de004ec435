package baseline

import (
	"container/list"
	"math/rand"
	"testing"

	"sentinel/internal/alloc"
)

// refCache is Memory Mode's block cache as it was on container/list, kept
// as the reference for the index-linked LRU.
type refCache struct {
	capacity, used int64
	lru            *list.List // of *refEntry, front = most recent
	byAddr         map[int64]*list.Element
}

type refEntry struct{ addr, size int64 }

func (c *refCache) lookup(r alloc.Region) float64 {
	if el, ok := c.byAddr[r.Addr]; ok {
		e := el.Value.(*refEntry)
		c.lru.MoveToFront(el)
		if e.size >= r.Size {
			return 1
		}
		return float64(e.size) / float64(r.Size)
	}
	return 0
}

func (c *refCache) insert(r alloc.Region) {
	if el, ok := c.byAddr[r.Addr]; ok {
		e := el.Value.(*refEntry)
		c.used += r.Size - e.size
		e.size = r.Size
		c.lru.MoveToFront(el)
	} else {
		c.byAddr[r.Addr] = c.lru.PushFront(&refEntry{addr: r.Addr, size: r.Size})
		c.used += r.Size
	}
	for c.used > c.capacity && c.lru.Len() > 1 {
		tail := c.lru.Back()
		e := tail.Value.(*refEntry)
		c.lru.Remove(tail)
		delete(c.byAddr, e.addr)
		c.used -= e.size
	}
}

// TestMemoryModeMatchesListLRU drives both caches with the same random
// accesses (regions that grow, shrink and outsize the cache included):
// every hit fraction, the bytes held and the recency order must agree.
func TestMemoryModeMatchesListLRU(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := NewMemoryMode()
		p.capacity = 2 << 20
		ref := &refCache{capacity: p.capacity, lru: list.New(), byAddr: map[int64]*list.Element{}}
		for step := 0; step < 5000; step++ {
			r := alloc.Region{Addr: int64(rng.Intn(64)) << 22, Size: 1 + rng.Int63n(640<<10)}
			if rng.Intn(200) == 0 {
				r.Size = 3 << 20
			}
			if got, want := p.lookup(r), ref.lookup(r); got != want {
				t.Fatalf("seed %d step %d: hit %v, want %v", seed, step, got, want)
			}
			p.insert(r)
			ref.insert(r)
			if p.used != ref.used || len(p.byAddr) != len(ref.byAddr) {
				t.Fatalf("seed %d step %d: %d bytes in %d blocks, want %d in %d",
					seed, step, p.used, len(p.byAddr), ref.used, len(ref.byAddr))
			}
		}
		el := ref.lru.Front()
		for i := p.head; i >= 0; i = p.entries[i].next {
			if el == nil || p.entries[i].addr != el.Value.(*refEntry).addr {
				t.Fatalf("seed %d: recency order differs at block %#x", seed, p.entries[i].addr)
			}
			el = el.Next()
		}
		if el != nil {
			t.Fatalf("seed %d: list has blocks past the index-linked tail", seed)
		}
	}
}
