package profile

import (
	"fmt"
	"sort"
	"strings"

	"sentinel/internal/alloc"
	"sentinel/internal/exec"
	"sentinel/internal/graph"
	"sentinel/internal/kernel"
	"sentinel/internal/memsys"
	"sentinel/internal/tensor"
)

// AccessBucket classifies tensors/pages by main-memory access count, the
// buckets of Observation 2 and 3.
type AccessBucket int

// Buckets: never accessed, cold (1-10), warm (11-100), hot (>100).
const (
	BucketZero AccessBucket = iota
	BucketCold
	BucketWarm
	BucketHot
	numBuckets
)

// String names the bucket.
func (b AccessBucket) String() string {
	switch b {
	case BucketZero:
		return "0"
	case BucketCold:
		return "1-10"
	case BucketWarm:
		return "11-100"
	case BucketHot:
		return ">100"
	default:
		return fmt.Sprintf("bucket(%d)", int(b))
	}
}

// BucketOf maps an access count to its bucket.
func BucketOf(accesses int64) AccessBucket {
	switch {
	case accesses == 0:
		return BucketZero
	case accesses <= 10:
		return BucketCold
	case accesses <= 100:
		return BucketWarm
	default:
		return BucketHot
	}
}

// Characterization is the Sec. III-B study output.
type Characterization struct {
	Model string
	Batch int
	// Observation 1: tensor population.
	Tensors              int
	ShortLived           int
	SmallAmongShortLived int // short-lived and smaller than a page
	PeakShortLivedBytes  int64
	PeakBytes            int64
	// Observation 2: tensor-level bytes per access bucket.
	TensorBytes  [numBuckets]int64
	TensorCounts [numBuckets]int
	// Observation 3: page-level bytes per access bucket under the
	// packed (BFC) allocator, where pages are shared across tensors.
	PageBytes [numBuckets]int64
	// FalseSharingBytes is tensor-level cold bytes (1-10 accesses) that
	// page-level profiling misattributes to hotter buckets — the gap the
	// paper reports as 908 MB vs 764 MB for ResNet-32.
	FalseSharingBytes int64
}

// ShortLivedFraction returns the fraction of tensors that are short-lived
// (the paper reports 92% for ResNet-32).
func (c *Characterization) ShortLivedFraction() float64 {
	if c.Tensors == 0 {
		return 0
	}
	return float64(c.ShortLived) / float64(c.Tensors)
}

// SmallFraction returns the fraction of short-lived tensors smaller than a
// page (98% in the paper).
func (c *Characterization) SmallFraction() float64 {
	if c.ShortLived == 0 {
		return 0
	}
	return float64(c.SmallAmongShortLived) / float64(c.ShortLived)
}

// String renders the characterization as the profiling report.
func (c *Characterization) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "characterization of %s (batch %d)\n", c.Model, c.Batch)
	fmt.Fprintf(&b, "  tensors: %d total, %d short-lived (%.1f%%), %.1f%% of short-lived are sub-page\n",
		c.Tensors, c.ShortLived, 100*c.ShortLivedFraction(), 100*c.SmallFraction())
	fmt.Fprintf(&b, "  peak memory %.1f MiB, short-lived peak %.1f MiB\n",
		float64(c.PeakBytes)/(1<<20), float64(c.PeakShortLivedBytes)/(1<<20))
	fmt.Fprintf(&b, "  %-8s %14s %10s %14s\n", "accesses", "tensor bytes", "tensors", "page bytes")
	for bk := BucketZero; bk < numBuckets; bk++ {
		fmt.Fprintf(&b, "  %-8s %11.1f MiB %10d %11.1f MiB\n",
			bk, float64(c.TensorBytes[bk])/(1<<20), c.TensorCounts[bk], float64(c.PageBytes[bk])/(1<<20))
	}
	fmt.Fprintf(&b, "  page-level false sharing: %.1f MiB of cold tensor bytes look hotter at page level\n",
		float64(c.FalseSharingBytes)/(1<<20))
	return b.String()
}

// layoutRecorder captures every allocation's region under the packed
// allocator to reconstruct page-level access attribution.
type layoutRecorder struct {
	exec.Base
	records []layoutRecord
}

type layoutRecord struct {
	id     tensor.ID
	region alloc.Region
}

func (l *layoutRecorder) Name() string { return "layout-recorder" }

func (l *layoutRecorder) AllocConfig(*graph.Graph) alloc.Config {
	return alloc.Config{Mode: alloc.Packed}
}

func (l *layoutRecorder) TensorAllocated(t *tensor.Tensor, r alloc.Region) {
	l.records = append(l.records, layoutRecord{id: t.ID, region: r})
}

// Characterize runs the Sec. III characterization: a tensor-level profile
// plus a packed-allocator step whose layout yields the page-level view.
func Characterize(g *graph.Graph, spec memsys.Spec) (*Characterization, error) {
	p, err := Collect(g, spec)
	if err != nil {
		return nil, err
	}
	rec := &layoutRecorder{}
	rt, err := exec.NewRuntime(g, spec, rec)
	if err != nil {
		return nil, err
	}
	if _, err := rt.RunStep(); err != nil {
		return nil, err
	}

	c := &Characterization{
		Model:               g.Model,
		Batch:               g.Batch,
		PeakBytes:           p.PeakMemory,
		PeakShortLivedBytes: p.PeakShortLived,
	}
	for i := range p.Tensors {
		ts := &p.Tensors[i]
		c.Tensors++
		if ts.ShortLived() {
			c.ShortLived++
			if ts.Size < kernel.PageSize {
				c.SmallAmongShortLived++
			}
		}
		bk := BucketOf(ts.Accesses)
		c.TensorBytes[bk] += ts.Size
		c.TensorCounts[bk]++
	}

	// Page-level attribution: each page accumulates the access counts of
	// every tensor that ever overlapped it (page counters do not reset
	// when the allocator reuses memory). Computed with a boundary sweep
	// so multi-gigabyte address spaces stay cheap.
	type delta struct {
		page kernel.PageID
		add  int64
	}
	var deltas []delta
	for _, r := range rec.records {
		ts := p.ByID(r.id)
		if ts == nil {
			continue
		}
		first, last := r.region.Pages()
		deltas = append(deltas, delta{page: first, add: ts.Accesses}, delta{page: last + 1, add: -ts.Accesses})
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].page < deltas[j].page })
	var cur int64
	var prev kernel.PageID
	for i := 0; i < len(deltas); {
		page := deltas[i].page
		if cur != 0 && page > prev {
			bytes := int64(page-prev) * kernel.PageSize
			c.PageBytes[BucketOf(cur)] += bytes
		}
		for i < len(deltas) && deltas[i].page == page {
			cur += deltas[i].add
			i++
		}
		prev = page
	}

	// False sharing: cold tensor bytes whose pages look warmer. The
	// page-level cold byte total is smaller than the tensor-level one
	// exactly by the bytes promoted to hotter buckets.
	if gap := c.TensorBytes[BucketCold] - c.PageBytes[BucketCold]; gap > 0 {
		c.FalseSharingBytes = gap
	}
	return c, nil
}
