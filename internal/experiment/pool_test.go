package experiment

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingProgress records Progress callbacks for assertions.
type countingProgress struct {
	mu          sync.Mutex
	added, done int
}

func (p *countingProgress) AddCells(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.added += n
}

func (p *countingProgress) CellDone() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
}

func TestRunCells(t *testing.T) {
	cases := []struct {
		name    string
		workers int
		n       int
		// fail marks cell indices whose fn returns an error.
		fail map[int]bool
	}{
		{name: "sequential", workers: 1, n: 8},
		{name: "parallel", workers: 4, n: 32},
		{name: "more-workers-than-cells", workers: 16, n: 3},
		{name: "default-workers", workers: 0, n: 8},
		{name: "single-cell", workers: 4, n: 1},
		{name: "sequential-error", workers: 1, n: 6, fail: map[int]bool{2: true}},
		{name: "parallel-errors", workers: 4, n: 12, fail: map[int]bool{0: true, 7: true}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			prog := &countingProgress{}
			o := Options{Workers: tc.workers, Progress: prog}
			var calls atomic.Int64
			res, err := runCells(o, tc.n, func(i int) (int, error) {
				calls.Add(1)
				// Finish out of submission order: later cells return
				// faster, so ordered results prove index-keyed storage
				// rather than completion-order collection.
				time.Sleep(time.Duration(tc.n-i) * 100 * time.Microsecond)
				if tc.fail[i] {
					return 0, fmt.Errorf("boom %d", i)
				}
				return i * i, nil
			})
			if len(tc.fail) == 0 && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if len(tc.fail) > 0 {
				if err == nil {
					t.Fatal("expected joined error, got nil")
				}
				for i := range tc.fail {
					if want := fmt.Sprintf("cell %d: boom %d", i, i); !contains(err, want) {
						t.Errorf("error %q missing %q", err, want)
					}
				}
			}
			if got := calls.Load(); got != int64(tc.n) {
				t.Fatalf("ran %d cells, want %d (failures must not abort the sweep)", got, tc.n)
			}
			if len(res) != tc.n {
				t.Fatalf("got %d results, want %d", len(res), tc.n)
			}
			for i, v := range res {
				switch {
				case tc.fail[i] && v != 0:
					t.Errorf("failed cell %d left non-zero result %d", i, v)
				case !tc.fail[i] && v != i*i:
					t.Errorf("res[%d] = %d, want %d", i, v, i*i)
				}
			}
			if prog.added != tc.n || prog.done != tc.n {
				t.Errorf("progress saw added=%d done=%d, want %d/%d", prog.added, prog.done, tc.n, tc.n)
			}
		})
	}
}

func contains(err error, sub string) bool {
	return err != nil && strings.Contains(err.Error(), sub)
}

func TestRunCellsEmpty(t *testing.T) {
	res, err := runCells(Options{Workers: 4}, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || res != nil {
		t.Fatalf("empty sweep: res=%v err=%v", res, err)
	}
}

// TestRunCellsSequentialOrder proves Workers=1 executes cells strictly in
// submission order, one at a time — the pre-pool serial behavior.
func TestRunCellsSequentialOrder(t *testing.T) {
	var order []int
	_, err := runCells(Options{Workers: 1}, 10, func(i int) (int, error) {
		order = append(order, i) // safe: one worker runs one cell at a time
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 10 {
		t.Fatalf("ran %d cells, want 10", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential execution order %v", order)
		}
	}
}

// TestRunCellsPanicRecovery: a panicking cell becomes a typed per-cell
// error joined into the sweep result; the process survives and every
// other cell still runs, whatever the pool's width.
func TestRunCellsPanicRecovery(t *testing.T) {
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var calls atomic.Int64
			res, err := runCells(Options{Workers: workers}, 8, func(i int) (int, error) {
				calls.Add(1)
				if i == 3 {
					panic(fmt.Sprintf("bug in cell %d", i))
				}
				return i, nil
			})
			if calls.Load() != 8 {
				t.Fatalf("ran %d cells, want 8 (a panic must not abort the sweep)", calls.Load())
			}
			if !errors.Is(err, ErrCellPanicked) {
				t.Fatalf("err = %v, want ErrCellPanicked", err)
			}
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatal("no *PanicError in chain")
			}
			if pe.Value != "bug in cell 3" || len(pe.Stack) == 0 {
				t.Fatalf("PanicError lost its payload: value=%v stack=%d bytes", pe.Value, len(pe.Stack))
			}
			for i, v := range res {
				if i != 3 && v != i {
					t.Errorf("res[%d] = %d, want %d", i, v, i)
				}
			}
		})
	}
}

// boundary runs fn(i) for each of n cells through the pool, each under
// the fault boundary as cell "c<i>", with placeholder -1.
func boundary(o Options, n int, fn func(i int) (int, error)) ([]int, error) {
	return runCells(o, n, func(i int) (int, error) {
		return runCell(o, func() (string, int) { return fmt.Sprintf("c%d", i), -1 }, func() (int, error) { return fn(i) })
	})
}

// TestCellBoundaryTimeout: a cell past Options.CellTimeout is abandoned
// with ErrCellTimeout; fast cells are untouched.
func TestCellBoundaryTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	res, err := boundary(Options{Workers: 4, CellTimeout: 50 * time.Millisecond}, 6,
		func(i int) (int, error) {
			if i == 2 {
				<-release // hang until the test ends
			}
			return i * 10, nil
		})
	if !errors.Is(err, ErrCellTimeout) {
		t.Fatalf("err = %v, want ErrCellTimeout", err)
	}
	if want := "cell 2:"; !contains(err, want) {
		t.Fatalf("error %q does not attribute the timeout to cell 2", err)
	}
	for i, v := range res {
		if i != 2 && v != i*10 {
			t.Errorf("res[%d] = %d, want %d", i, v, i*10)
		}
	}
	if res[2] != 0 {
		t.Errorf("timed-out cell left a partial result %d", res[2])
	}
}

// TestCellBoundaryCancel: a cancelled context skips cells that have not
// started; every skipped cell reports context.Canceled.
func TestCellBoundaryCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	_, err := boundary(Options{Workers: 2, Ctx: ctx}, 16, func(i int) (int, error) {
		if started.Add(1) == 2 {
			cancel()
		}
		time.Sleep(time.Millisecond)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want a context.Canceled cell", err)
	}
	if n := started.Load(); n >= 16 {
		t.Fatalf("all %d cells started despite cancellation", n)
	}
}

// TestCellBoundaryPreCancelled: a context cancelled before the sweep
// starts runs no cell at all.
func TestCellBoundaryPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	_, err := boundary(Options{Workers: 4, Ctx: ctx}, 8, func(i int) (int, error) {
		calls.Add(1)
		return i, nil
	})
	if calls.Load() != 0 {
		t.Fatalf("%d cells ran under a pre-cancelled context", calls.Load())
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCellBoundaryQuarantine: inside an experiment the boundary files a
// panicking, hung, abandoned or skipped cell under its label and hands
// back the placeholder, while a genuine error still fails, named by its
// label.
func TestCellBoundaryQuarantine(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	o := Options{Workers: 1, Ctx: ctx, CellTimeout: 50 * time.Millisecond, quar: &quarantine{}}
	res, err := boundary(o, 5, func(i int) (int, error) {
		switch i {
		case 1:
			panic("injected")
		case 2:
			<-release
		case 3:
			cancel() // cell 3 is abandoned, cell 4 skipped
			<-release
		}
		return i, nil
	})
	if err != nil {
		t.Fatalf("quarantinable faults failed the batch: %v", err)
	}
	if want := []int{0, -1, -1, -1, -1}; !reflect.DeepEqual(res, want) {
		t.Errorf("results %v, want %v", res, want)
	}
	want := []string{
		"TABLE INCOMPLETE: 4 cell(s) quarantined or skipped; affected cells render as n/a or zero",
		"quarantined c1: cell panicked: injected",
		"quarantined c2: no result after 50ms: cell timed out",
		"quarantined c3: sweep cancelled: abandoned: context canceled",
		"quarantined c4: sweep cancelled: skipped: context canceled",
	}
	if got := o.quar.report(); !reflect.DeepEqual(got, want) {
		t.Errorf("footer\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	boom := errors.New("boom")
	o = Options{quar: &quarantine{}}
	name := func() (string, int) { return "bad/cell", 0 }
	if _, err := runCell(o, name, func() (int, error) { return 0, boom }); !errors.Is(err, boom) || err.Error() != "bad/cell: boom" {
		t.Errorf("genuine error = %v, want %q", err, "bad/cell: boom")
	}
	if notes := o.quar.report(); notes != nil {
		t.Errorf("genuine error was quarantined: %v", notes)
	}
	// Outside an experiment nothing is quarantined or renamed.
	if _, err := runCell(Options{}, name, func() (int, error) { return 0, boom }); err != boom {
		t.Errorf("error outside an experiment = %v, want it as returned", err)
	}
}

func TestCacheSingleflight(t *testing.T) {
	c := NewCache()
	var computes atomic.Int64
	const callers = 16
	var wg sync.WaitGroup
	results := make([]any, callers)
	for g := 0; g < callers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.do("k", func() (any, error) {
				computes.Add(1)
				time.Sleep(time.Millisecond)
				return "value", nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", g, err)
			}
			results[g] = v
		}()
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("computed %d times, want 1 (singleflight)", n)
	}
	for g, v := range results {
		if v != "value" {
			t.Errorf("caller %d saw %v", g, v)
		}
	}
	if c.Len() != 1 {
		t.Fatalf("cache has %d keys, want 1", c.Len())
	}
}

func TestCacheDoBypass(t *testing.T) {
	c := NewCache()
	var computes int
	compute := func() (int, error) { computes++; return 42, nil }

	// NoCache computes every time, even with a cache attached.
	o := Options{Cache: c, NoCache: true}
	for i := 0; i < 3; i++ {
		if v, err := cacheDo(o, "k", compute); err != nil || v != 42 {
			t.Fatalf("v=%d err=%v", v, err)
		}
	}
	if computes != 3 || c.Len() != 0 {
		t.Fatalf("NoCache path: computes=%d cached keys=%d", computes, c.Len())
	}

	// With the cache enabled, the second call is a hit.
	computes = 0
	o = Options{Cache: c}
	for i := 0; i < 3; i++ {
		if v, err := cacheDo(o, "k", compute); err != nil || v != 42 {
			t.Fatalf("v=%d err=%v", v, err)
		}
	}
	if computes != 1 || c.Len() != 1 {
		t.Fatalf("cached path: computes=%d cached keys=%d", computes, c.Len())
	}
}

func TestCacheDoError(t *testing.T) {
	c := NewCache()
	boom := errors.New("boom")
	calls := 0
	for i := 0; i < 2; i++ {
		_, err := cacheDo(Options{Cache: c}, "bad", func() (int, error) {
			calls++
			return 0, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v", err)
		}
	}
	if calls != 1 {
		t.Fatalf("error computed %d times; errors memoize like values", calls)
	}
}

// TestCacheDoErrorConcurrent: a failing compute must be returned to every
// concurrent waiter on the key and must never be replaced by a cached
// success — computing exactly once, failing everywhere.
func TestCacheDoErrorConcurrent(t *testing.T) {
	c := NewCache()
	boom := errors.New("boom")
	var computes atomic.Int64
	const callers = 32
	var wg sync.WaitGroup
	errs := make([]error, callers)
	vals := make([]int, callers)
	for g := 0; g < callers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			vals[g], errs[g] = cacheDo(Options{Cache: c}, "bad", func() (int, error) {
				computes.Add(1)
				time.Sleep(2 * time.Millisecond) // hold waiters in singleflight
				return 99, boom
			})
		}()
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("failing compute ran %d times, want 1", n)
	}
	for g := 0; g < callers; g++ {
		if !errors.Is(errs[g], boom) {
			t.Fatalf("caller %d: err = %v, want boom (a failure must reach every waiter)", g, errs[g])
		}
		if vals[g] != 0 {
			t.Fatalf("caller %d: failing compute leaked value %d alongside its error", g, vals[g])
		}
	}
	// And it stays a failure: a later lookup must not find a success.
	if _, err := cacheDo(Options{Cache: c}, "bad", func() (int, error) {
		t.Fatal("failed entry recomputed")
		return 0, nil
	}); !errors.Is(err, boom) {
		t.Fatalf("post-failure lookup: err = %v, want the memoized failure", err)
	}
}

// TestCachePanicTyped: a compute that panics poisons neither the waiters
// nor the entry — everyone sees a typed ErrCellPanicked, never (nil, nil).
func TestCachePanicTyped(t *testing.T) {
	c := NewCache()
	const callers = 8
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for g := 0; g < callers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[g] = c.do("explodes", func() (any, error) {
				time.Sleep(2 * time.Millisecond)
				panic("compute bug")
			})
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if !errors.Is(err, ErrCellPanicked) {
			t.Fatalf("caller %d: err = %v, want ErrCellPanicked", g, err)
		}
	}
}

func TestCacheStats(t *testing.T) {
	c := NewCache()
	// Two misses, then two hits on completed entries.
	for _, key := range []string{"a", "b", "a", "b"} {
		v, err := c.do(key, func() (any, error) { return key, nil })
		if err != nil || v != key {
			t.Fatalf("lookup %q: v=%v err=%v", key, v, err)
		}
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 2 || s.Waits != 0 {
		t.Fatalf("stats = %+v, want hits=2 misses=2 waits=0", s)
	}
	if got := s.String(); got != "2 hits, 2 misses, 0 singleflight waits" {
		t.Fatalf("stats rendering %q", got)
	}
}
