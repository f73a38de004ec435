package kernel

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"sentinel/internal/memsys"
	"sentinel/internal/simtime"
)

// testSpec returns a small machine for kernel tests: 1 MiB fast, 16 MiB
// slow, 1 GB/s migration.
func testSpec() memsys.Spec {
	s := memsys.OptaneHM()
	s.Fast.Size = 1 << 20
	s.Slow.Size = 16 << 20
	s.MigrationBW = 1e9
	return s
}

func newKernel(t *testing.T) *Kernel {
	t.Helper()
	k, err := New(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestPageGeometry(t *testing.T) {
	if PageOf(0) != 0 || PageOf(4095) != 0 || PageOf(4096) != 1 {
		t.Fatal("PageOf wrong")
	}
	f, l := PageSpan(4096, 4096)
	if f != 1 || l != 1 {
		t.Fatalf("PageSpan(4096,4096) = [%d,%d]", f, l)
	}
	f, l = PageSpan(4000, 200)
	if f != 0 || l != 1 {
		t.Fatalf("straddling span = [%d,%d]", f, l)
	}
	f, l = PageSpan(0, 0)
	if f != 0 || l != 0 {
		t.Fatalf("empty span = [%d,%d]", f, l)
	}
}

func TestMapUnmapAccounting(t *testing.T) {
	k := newKernel(t)
	if _, err := k.Map(1, 4, memsys.Fast); err != nil {
		t.Fatal(err)
	}
	if got := k.Used(memsys.Fast); got != 4*PageSize {
		t.Fatalf("used = %d", got)
	}
	// Overlapping map must fail with the typed error.
	if _, err := k.Map(3, 6, memsys.Slow); !errors.Is(err, ErrAlreadyMapped) {
		t.Fatalf("overlapping map: %v, want ErrAlreadyMapped", err)
	}
	// Capacity is enforced: fast is 1 MiB = 256 pages. That failure is
	// NOT an overlap.
	if _, err := k.Map(1000, 1000+300, memsys.Fast); err == nil || errors.Is(err, ErrAlreadyMapped) {
		t.Fatalf("over-capacity map: %v", err)
	}
	k.Unmap(2, 3, 0)
	if got := k.Used(memsys.Fast); got != 2*PageSize {
		t.Fatalf("after partial unmap used = %d", got)
	}
	// Remap into the hole.
	if _, err := k.Map(2, 3, memsys.Slow); err != nil {
		t.Fatalf("remap into hole: %v", err)
	}
	// A mapping's page counts are int32, so Map refuses 2^31 pages.
	if _, err := k.Map(1<<40, 1<<40+math.MaxInt32, memsys.Slow); err == nil {
		t.Fatal("map of 2^31 pages accepted")
	}
}

func TestTierBytes(t *testing.T) {
	k := newKernel(t)
	if _, err := k.Map(0, 3, memsys.Fast); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Map(4, 7, memsys.Slow); err != nil {
		t.Fatal(err)
	}
	fast, slow := k.TierBytes(0, 8*PageSize, 0)
	if fast != 4*PageSize || slow != 4*PageSize {
		t.Fatalf("split %d/%d", fast, slow)
	}
	// Unmapped range reports as slow.
	fast, slow = k.TierBytes(100*PageSize, PageSize, 0)
	if fast != 0 || slow != PageSize {
		t.Fatalf("unmapped split %d/%d", fast, slow)
	}
}

func TestMigrateAsyncSemantics(t *testing.T) {
	k := newKernel(t)
	if _, err := k.Map(0, 99, memsys.Slow); err != nil { // 100 pages
		t.Fatal(err)
	}
	bytes := int64(100) * PageSize
	done, moved, short := k.Migrate(0, bytes, memsys.Fast, 0)
	if short != 0 || moved != bytes {
		t.Fatalf("moved %d short %d", moved, short)
	}
	want := simtime.Time(simtime.TransferTime(bytes, 1e9))
	if done != want {
		t.Fatalf("done %v want %v", done, want)
	}
	// Capacity accounting is instantaneous...
	if k.Used(memsys.Fast) != bytes {
		t.Fatal("fast not reserved at submit")
	}
	// ...but residency switches only at completion.
	fast, _ := k.TierBytes(0, bytes, done-1)
	if fast != 0 {
		t.Fatalf("resident early: %d fast bytes", fast)
	}
	fast, _ = k.TierBytes(0, bytes, done)
	if fast != bytes {
		t.Fatalf("not resident at completion: %d", fast)
	}
	// Migrating to the same tier is a no-op.
	_, moved, _ = k.Migrate(0, bytes, memsys.Fast, done)
	if moved != 0 {
		t.Fatalf("same-tier migrate moved %d", moved)
	}
}

func TestMigrateCapacityShortfall(t *testing.T) {
	k := newKernel(t)
	if _, err := k.Map(0, 511, memsys.Slow); err != nil { // 2 MiB > 1 MiB fast
		t.Fatal(err)
	}
	_, moved, short := k.Migrate(0, 512*PageSize, memsys.Fast, 0)
	if short == 0 {
		t.Fatal("expected shortfall")
	}
	if moved+short != 512*PageSize {
		t.Fatalf("moved %d + short %d != total", moved, short)
	}
}

func TestPinPreventsMigration(t *testing.T) {
	k := newKernel(t)
	if _, err := k.Map(0, 9, memsys.Slow); err != nil {
		t.Fatal(err)
	}
	k.Pin(0, 4, true)
	_, moved, _ := k.Migrate(0, 10*PageSize, memsys.Fast, 0)
	if moved != 5*PageSize {
		t.Fatalf("moved %d, want only the unpinned half", moved)
	}
	k.Pin(0, 4, false)
	_, moved, _ = k.Migrate(0, 10*PageSize, memsys.Fast, 0)
	if moved != 5*PageSize {
		t.Fatalf("after unpin moved %d", moved)
	}
}

func TestPoisonFaultCounting(t *testing.T) {
	k := newKernel(t)
	if _, err := k.Map(0, 9, memsys.Slow); err != nil {
		t.Fatal(err)
	}
	k.Poison(0, 9)
	// Without profiling enabled, no faults.
	if f := k.Touch(0, 10*PageSize, 3, false, 0); f != 0 {
		t.Fatalf("faults without profiling: %d", f)
	}
	k.SetProfiling(true)
	// Each access faults once per page (the handler re-poisons).
	if f := k.Touch(0, 10*PageSize, 3, true, 0); f != 30 {
		t.Fatalf("faults = %d, want 30", f)
	}
	if k.Faults() != 30 {
		t.Fatalf("total faults = %d", k.Faults())
	}
	if c := k.FaultCounts(0, 10*PageSize); c != 30 {
		t.Fatalf("FaultCounts = %d", c)
	}
	// Unpoisoned pages never fault.
	if _, err := k.Map(100, 100, memsys.Slow); err != nil {
		t.Fatal(err)
	}
	if f := k.Touch(100*PageSize, PageSize, 5, false, 0); f != 0 {
		t.Fatalf("unpoisoned page faulted %d times", f)
	}
	k.ResetCounters()
	if k.Faults() != 0 || k.FaultCounts(0, 10*PageSize) != 0 {
		t.Fatal("counters not reset")
	}
}

func TestTouchHook(t *testing.T) {
	k := newKernel(t)
	if _, err := k.Map(0, 3, memsys.Slow); err != nil {
		t.Fatal(err)
	}
	var calls int
	k.SetTouchHook(func(first, last PageID, write bool, at simtime.Time) {
		calls++
		if first != 0 || last != 3 || !write {
			t.Errorf("hook args %d %d %v", first, last, write)
		}
	})
	k.Touch(0, 4*PageSize, 1, true, 0)
	if calls != 1 {
		t.Fatalf("hook called %d times", calls)
	}
	k.SetTouchHook(nil)
	k.Touch(0, 4*PageSize, 1, true, 0) // must not panic
}

func TestRelocate(t *testing.T) {
	k := newKernel(t)
	if _, err := k.Map(0, 9, memsys.Slow); err != nil {
		t.Fatal(err)
	}
	moved, short := k.Relocate(0, 10*PageSize, memsys.Fast, 0)
	if short != 0 || moved != 10*PageSize {
		t.Fatalf("moved %d short %d", moved, short)
	}
	// Relocation is instantaneous.
	fast, _ := k.TierBytes(0, 10*PageSize, 0)
	if fast != 10*PageSize {
		t.Fatal("not resident immediately after relocate")
	}
	// Relocate cancels a pending migration.
	k.Migrate(0, 10*PageSize, memsys.Slow, 0)
	moved, _ = k.Relocate(0, 10*PageSize, memsys.Fast, 0)
	if moved != 10*PageSize {
		t.Fatalf("relocate after migrate moved %d", moved)
	}
	fast, _ = k.TierBytes(0, 10*PageSize, 0)
	if fast != 10*PageSize {
		t.Fatal("pending migration not cancelled")
	}
}

func TestResidentFastBy(t *testing.T) {
	k := newKernel(t)
	if _, err := k.Map(0, 9, memsys.Slow); err != nil {
		t.Fatal(err)
	}
	_, ok := k.ResidentFastBy(0, 9, 0)
	if ok {
		t.Fatal("slow pages with no migration reported residency")
	}
	done, _, _ := k.Migrate(0, 10*PageSize, memsys.Fast, 0)
	ready, ok := k.ResidentFastBy(0, 9, 0)
	if !ok || ready != done {
		t.Fatalf("ready %v ok %v, want %v true", ready, ok, done)
	}
}

func TestMigrateUrgentFasterThanQueued(t *testing.T) {
	k := newKernel(t)
	if _, err := k.Map(0, 99, memsys.Slow); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Map(200, 209, memsys.Slow); err != nil {
		t.Fatal(err)
	}
	// Fill the in-channel with a large queued transfer.
	k.Migrate(0, 50*PageSize, memsys.Fast, 0)
	queued, _, _ := k.Migrate(50*PageSize, 50*PageSize, memsys.Fast, 0)
	urgent, _, _ := k.MigrateUrgent(200*PageSize, 10*PageSize, memsys.Fast, 0)
	if urgent >= queued {
		t.Fatalf("urgent (%v) not faster than queued (%v)", urgent, queued)
	}
}

func TestMapOverlapVariants(t *testing.T) {
	k := newKernel(t)
	if _, err := k.Map(10, 19, memsys.Slow); err != nil {
		t.Fatal(err)
	}
	// Every overlap shape is rejected: contained, containing, straddling
	// either edge, and exact.
	for _, c := range [][2]PageID{{12, 15}, {5, 25}, {5, 10}, {19, 25}, {10, 19}} {
		if _, err := k.Map(c[0], c[1], memsys.Fast); !errors.Is(err, ErrAlreadyMapped) {
			t.Errorf("map [%d,%d]: %v, want ErrAlreadyMapped", c[0], c[1], err)
		}
	}
	// A failed map must not corrupt accounting.
	if got := k.Used(memsys.Slow); got != 10*PageSize {
		t.Fatalf("used after failed maps = %d", got)
	}
	// Adjacent, non-overlapping ranges still map.
	if _, err := k.Map(20, 29, memsys.Slow); err != nil {
		t.Fatalf("adjacent map: %v", err)
	}
	if _, err := k.Map(0, 9, memsys.Slow); err != nil {
		t.Fatalf("preceding map: %v", err)
	}
}

func TestShrinkFast(t *testing.T) {
	k := newKernel(t) // 1 MiB fast
	if _, err := k.Map(0, 199, memsys.Fast); err != nil {
		t.Fatal(err)
	}
	if got := k.ShrinkFast(512 * 1024); got != 512*1024 {
		t.Fatalf("shrunk %d, want 512 KiB", got)
	}
	if k.Spec().Fast.Size != 512*1024 {
		t.Fatalf("fast size %d after shrink", k.Spec().Fast.Size)
	}
	// 200 pages mapped > 128-page ceiling: Free goes negative, mappings survive.
	if free := k.Free(memsys.Fast); free >= 0 {
		t.Fatalf("free = %d, want negative under the new ceiling", free)
	}
	if got := k.Used(memsys.Fast); got != 200*PageSize {
		t.Fatalf("mapped bytes changed by shrink: %d", got)
	}
	// The tier never shrinks below one page.
	if got := k.ShrinkFast(1 << 30); got != 512*1024-PageSize {
		t.Fatalf("clamped shrink removed %d", got)
	}
	if k.Spec().Fast.Size != PageSize {
		t.Fatalf("fast size %d, want one page floor", k.Spec().Fast.Size)
	}
	if got := k.ShrinkFast(-5); got != 0 {
		t.Fatalf("negative shrink removed %d", got)
	}
}

func TestChargeChannelWastesBandwidth(t *testing.T) {
	k := newKernel(t)
	if _, err := k.Map(0, 9, memsys.Slow); err != nil {
		t.Fatal(err)
	}
	// A wasted charge occupies the in-channel without moving pages...
	done := k.ChargeChannel(memsys.Fast, 10*PageSize, 0, false)
	want := simtime.Time(simtime.TransferTime(10*PageSize, 1e9))
	if done != want {
		t.Fatalf("charge done at %v, want %v", done, want)
	}
	if fast, _ := k.TierBytes(0, 10*PageSize, done); fast != 0 {
		t.Fatal("charge moved pages")
	}
	// ...and a real migration submitted afterwards queues behind it.
	migDone, _, _ := k.Migrate(0, 10*PageSize, memsys.Fast, 0)
	if migDone != 2*want {
		t.Fatalf("migration after charge done at %v, want %v", migDone, 2*want)
	}
	// Urgent charges preempt (complete before the queued backlog drains).
	k.ChargeChannel(memsys.Fast, 100*PageSize, 0, false)
	if u := k.ChargeChannel(memsys.Fast, PageSize, 0, true); u >= k.InChannel().BusyUntil() {
		t.Fatal("urgent charge waited behind the queue")
	}
	if got := k.ChargeChannel(memsys.Fast, 0, 5, false); got != 5 {
		t.Fatalf("zero-byte charge returned %v", got)
	}
}

// TestRandomOpsInvariants drives the kernel with random sequences of every
// run-state change and checks, after each op, that used bytes per tier
// equal the sum over mapped runs, that the end-key mirror and findIdx
// agree with the run table, and that every live mapping's counts equal a
// walk of its runs (which also pins id reuse: a Map takes the id the last
// full Unmap released).
func TestRandomOpsInvariants(t *testing.T) {
	spec := testSpec()
	spec.Fast.Size = 64 << 20
	spec.Slow.Size = 64 << 20
	spec.MigrationBW = 2e8 // 20 us a page, so migrations stay in flight across ops
	k, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	// seg is a mapped piece of mapping m; a partial Unmap cuts a seg.
	type seg struct {
		first, last PageID
		m           MapID
	}
	var mapped []seg
	var released []MapID // ids of fully unmapped mappings, oldest first
	now := simtime.Time(0)
	unmap := func(first, last PageID) {
		// Unmap once every migration in flight has landed: Unmap of an
		// in-flight run releases its source tier's bytes although the
		// destination's were reserved, which breaks the usage check
		// below (a known fault; TestUnmapInFlightCounts covers the
		// counts on that path).
		k.Unmap(first, last, simtime.Max(now, simtime.Max(k.InChannel().BusyUntil(), k.OutChannel().BusyUntil())))
		var keep []seg
		gone := map[MapID]bool{}
		for _, s := range mapped {
			if s.last < first || s.first > last {
				keep = append(keep, s)
				continue
			}
			gone[s.m] = true
			if s.first < first {
				keep = append(keep, seg{s.first, first - 1, s.m})
			}
			if s.last > last {
				keep = append(keep, seg{last + 1, s.last, s.m})
			}
		}
		for _, s := range keep {
			delete(gone, s.m)
		}
		// Unmap releases ids in address order of their last run.
		var ids []MapID
		for _, s := range mapped {
			if gone[s.m] {
				ids = append(ids, s.m)
				delete(gone, s.m)
			}
		}
		released = append(released, ids...)
		mapped = keep
	}
	// sub picks a random page range inside a random mapped seg.
	sub := func() (first, last PageID, ok bool) {
		if len(mapped) == 0 {
			return 0, 0, false
		}
		s := mapped[rng.Intn(len(mapped))]
		first = s.first + PageID(rng.Int63n(int64(s.last-s.first)+1))
		last = first + PageID(rng.Int63n(int64(s.last-first)+1))
		return first, last, true
	}
	var ops [11]int
	var lastMigrated [2]PageID // may be unmapped since; Relocate skips holes
	for i := 0; i < 4000; i++ {
		now = now.Add(simtime.Duration(rng.Intn(40)) * simtime.Microsecond)
		op := rng.Intn(len(ops))
		ops[op]++
		switch op {
		case 0: // map a fresh range
			first := PageID(rng.Intn(4000))
			last := first + PageID(rng.Intn(16))
			overlap := false
			for _, s := range mapped {
				if first <= s.last && last >= s.first {
					overlap = true
					break
				}
			}
			tier := memsys.Tier(rng.Intn(2))
			m, err := k.Map(first, last, tier)
			if overlap && err == nil {
				t.Fatalf("op %d: overlapping map succeeded [%d,%d]", i, first, last)
			}
			if err != nil {
				continue
			}
			if n := len(released); n > 0 {
				if m != released[n-1] {
					t.Fatalf("op %d: Map took id %d, want the last released %d", i, m, released[n-1])
				}
				released = released[:n-1]
			}
			mapped = append(mapped, seg{first, last, m})
		case 1: // unmap a whole mapping
			if len(mapped) == 0 {
				continue
			}
			c, _ := k.Counts(mapped[rng.Intn(len(mapped))].m)
			unmap(c.First, c.Last)
		case 2: // unmap part of a mapping
			if first, last, ok := sub(); ok {
				unmap(first, last)
			}
		case 3, 4: // migrate, ordinary or urgent
			first, last, ok := sub()
			if !ok {
				continue
			}
			lastMigrated = [2]PageID{first, last}
			addr, size := int64(first)<<PageShift, (int64(last-first)+1)*PageSize
			if op == 3 {
				k.Migrate(addr, size, memsys.Tier(rng.Intn(2)), now)
			} else {
				k.MigrateUrgent(addr, size, memsys.Tier(rng.Intn(2)), now)
			}
		case 5: // relocate, half the time over the last migrated range
			first, last, ok := sub()
			if rng.Intn(2) == 0 {
				first, last, ok = lastMigrated[0], lastMigrated[1], true
			}
			if ok {
				k.Relocate(int64(first)<<PageShift, (int64(last-first)+1)*PageSize, memsys.Tier(rng.Intn(2)), now)
			}
		case 6: // settle through TierBytes
			if first, last, ok := sub(); ok {
				k.TierBytes(int64(first)<<PageShift, (int64(last-first)+1)*PageSize, now)
			}
		case 7: // settle and split through ResidentFastBy
			if first, last, ok := sub(); ok {
				k.ResidentFastBy(first, last, now)
			}
		case 8: // pin or unpin
			if first, last, ok := sub(); ok {
				k.Pin(first, last, rng.Intn(2) == 0)
			}
		case 9, 10: // touch a mapped range
			if len(mapped) == 0 {
				continue
			}
			s := mapped[rng.Intn(len(mapped))]
			addr := int64(s.first) << PageShift
			size := (int64(s.last-s.first) + 1) * PageSize
			k.Touch(addr, size, 1+rng.Intn(3), rng.Intn(2) == 0, now)
		}
		// Invariant: total mapped bytes match the tracked segments.
		var want int64
		for _, s := range mapped {
			want += (int64(s.last-s.first) + 1) * PageSize
		}
		if got := k.MappedBytes(); got != want {
			t.Fatalf("op %d: mapped bytes %d, tracked %d", i, got, want)
		}
		if k.Used(memsys.Fast) < 0 || k.Used(memsys.Slow) < 0 {
			t.Fatalf("op %d: negative usage", i)
		}
		// Invariant: the dense end-key mirror used by findIdx tracks the
		// run table exactly through every split, insert, and removal.
		if len(k.ends) != len(k.runs) {
			t.Fatalf("op %d: ends len %d, runs len %d", i, len(k.ends), len(k.runs))
		}
		for j := range k.runs {
			if k.ends[j] != k.runs[j].end {
				t.Fatalf("op %d: ends[%d]=%d, runs[%d].end=%d", i, j, k.ends[j], j, k.runs[j].end)
			}
		}
		// Invariant: each live mapping's counts equal a walk of its runs,
		// every run lies inside its mapping's range, and only released
		// ids are free.
		walk := map[MapID]MapCounts{}
		for j := range k.runs {
			r := &k.runs[j]
			c := walk[r.m]
			c.First, c.Last = k.maps[r.m].First, k.maps[r.m].Last
			if r.start < c.First || r.end-1 > c.Last {
				t.Fatalf("op %d: run [%d,%d) outside mapping %d [%d,%d]", i, r.start, r.end, r.m, c.First, c.Last)
			}
			p := int32(r.pages())
			c.Pages += p
			if r.tier == memsys.Fast || r.migrating {
				c.FastOrInbound += p
			}
			if r.migrating && r.pendingTier == memsys.Fast {
				c.Inbound += p
			} else if r.migrating {
				c.Outbound += p
			}
			walk[r.m] = c
		}
		for _, s := range mapped {
			if got, _ := k.Counts(s.m); got != walk[s.m] {
				t.Fatalf("op %d: mapping %d counts %+v, walk %+v", i, s.m, got, walk[s.m])
			}
		}
		var free []MapID // the released ids, last released first
		for m := k.free; m != NoMap; m = k.maps[m].next {
			free = append(free, m)
		}
		if len(walk)+len(free) != len(k.maps) || len(free) != len(released) {
			t.Fatalf("op %d: %d live + %d free ids of %d, %d released", i, len(walk), len(free), len(k.maps), len(released))
		}
		for j, m := range free {
			if m != released[len(released)-1-j] {
				t.Fatalf("op %d: free chain %v, released %v", i, free, released)
			}
		}
		// Invariant: findIdx, hints and all, answers exactly what a
		// plain search over ends does, for mapped pages, gaps, and pages
		// past the last run. Hints left by earlier ops and colliding
		// pages are stale here, so only revalidation keeps them out.
		probes := []PageID{PageID(rng.Intn(4100)), PageID(rng.Intn(4100)), 4100 + PageID(rng.Intn(100))}
		if len(mapped) > 0 {
			s := mapped[rng.Intn(len(mapped))]
			probes = append(probes, s.first+PageID(rng.Int63n(int64(s.last-s.first)+1)))
		}
		for _, p := range probes {
			want := sort.Search(len(k.ends), func(j int) bool { return k.ends[j] > p })
			if got := k.findIdx(p); got != want {
				t.Fatalf("op %d: findIdx(%d) = %d, want %d", i, p, got, want)
			}
		}
	}
	for op, n := range ops {
		if n < 100 {
			t.Errorf("op kind %d ran %d times, want at least 100", op, n)
		}
	}
}

// TestUnmapInFlightCounts unmaps pages while their migrations are in
// flight, in part and then in full, and checks the mapping's counts and
// the recycling of its id.
func TestUnmapInFlightCounts(t *testing.T) {
	k := newKernel(t)
	m, err := k.Map(0, 9, memsys.Slow)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Map(20, 29, memsys.Fast); err != nil {
		t.Fatal(err)
	}
	k.Migrate(0, 4*PageSize, memsys.Fast, 0)           // pages 0-3 inbound
	k.Relocate(4*PageSize, 4*PageSize, memsys.Fast, 0) // pages 4-7 fast
	k.Migrate(6*PageSize, 2*PageSize, memsys.Slow, 0)  // pages 6-7 outbound
	want := MapCounts{First: 0, Last: 9, Pages: 10, FastOrInbound: 8, Inbound: 4, Outbound: 2}
	if got, _ := k.Counts(m); got != want {
		t.Fatalf("before unmap: %+v, want %+v", got, want)
	}
	k.Unmap(2, 6, 0) // two inbound, two fast, one outbound page
	want = MapCounts{First: 0, Last: 9, Pages: 5, FastOrInbound: 3, Inbound: 2, Outbound: 1}
	if got, _ := k.Counts(m); got != want {
		t.Fatalf("after partial unmap: %+v, want %+v", got, want)
	}
	k.Unmap(0, 9, 0)
	if got, _ := k.Counts(m); got != (MapCounts{First: 0, Last: 9}) {
		t.Fatalf("after full unmap: %+v, want zero counts", got)
	}
	m2, err := k.Map(40, 41, memsys.Fast)
	if err != nil {
		t.Fatal(err)
	}
	if m2 != m {
		t.Fatalf("Map after a full Unmap took id %d, want the released %d", m2, m)
	}
	if got, _ := k.Counts(m2); got != (MapCounts{First: 40, Last: 41, Pages: 2, FastOrInbound: 2}) {
		t.Fatalf("reused id counts %+v", got)
	}
}
