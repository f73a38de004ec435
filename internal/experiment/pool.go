package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"sentinel/internal/simtime"
	"sentinel/internal/trace"
)

// simDur casts a wall-clock duration onto the trace's virtual-time Dur
// field; cell-timeout events are sweep-level, so the field is purely
// informational (the deadline that expired).
func simDur(d time.Duration) simtime.Duration { return simtime.Duration(d.Nanoseconds()) }

// This file is the parallel experiment executor. Every figure and table is
// a sweep over independent cells — one (model, policy, machine, capacity)
// simulation each — so the runners build a flat cellRun list and submit it
// through Options.runAll, which fans the cells out over a bounded worker
// pool (runCells). Results come back in submission order regardless of
// completion order, so the emitted tables are byte-identical to a
// sequential run.
//
// The pool is also the sweep's fault boundary: a panicking cell is
// recovered into a typed ErrCellPanicked instead of taking down the
// process, a cell that exceeds Options.CellTimeout is abandoned with
// ErrCellTimeout, and a cancelled Options.Ctx (SIGINT/SIGTERM in
// sentinel-bench) skips cells that have not started and abandons the ones
// in flight, so a long sweep always winds down to rendered — if partial —
// tables.

// Sentinel errors for the pool's fault boundary. Cell errors wrap these,
// so errors.Is distinguishes a quarantined cell from a genuine failure.
var (
	// ErrCellPanicked marks a cell whose simulation panicked; the
	// wrapping PanicError carries the recovered value and stack.
	ErrCellPanicked = errors.New("cell panicked")
	// ErrCellTimeout marks a cell that exceeded the per-cell wall-clock
	// deadline (Options.CellTimeout) and was abandoned.
	ErrCellTimeout = errors.New("cell timed out")
)

// PanicError is the error a recovered worker panic is converted to. It
// wraps ErrCellPanicked and preserves the panic value and the stack of the
// panicking goroutine for the sweep's error report.
type PanicError struct {
	// Value is the value the cell panicked with.
	Value any
	// Stack is the panicking goroutine's stack, captured at recover.
	Stack []byte
}

// Error renders the panic value; the stack is available separately so a
// joined multi-cell error stays readable.
func (p *PanicError) Error() string { return fmt.Sprintf("cell panicked: %v", p.Value) }

// Unwrap makes errors.Is(err, ErrCellPanicked) hold.
func (p *PanicError) Unwrap() error { return ErrCellPanicked }

// Progress observes sweep execution: AddCells announces scheduled cells,
// CellDone marks one complete. Implementations must be safe for concurrent
// use by pool workers; *metrics.SweepProgress is the standard one.
type Progress interface {
	AddCells(n int)
	CellDone()
}

// workers resolves the worker-pool width: Options.Workers if set,
// otherwise GOMAXPROCS. Workers=1 is the strictly sequential path.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ctx resolves the sweep context; nil means never cancelled.
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// callCell invokes fn(i) with a panic boundary: a panic in the cell — a
// simulator bug, a bad model spec — becomes a *PanicError instead of
// crashing the whole worker pool.
func callCell[T any](fn func(i int) (T, error), i int) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// runCell executes one cell under the pool's fault boundary: panic
// recovery always; additionally a wall-clock deadline when CellTimeout is
// set and cancellation when Ctx is set. The deadline/cancel path runs the
// cell on a child goroutine and abandons it on expiry — the simulator has
// no internal preemption points, so an abandoned cell's goroutine drains
// in the background while the sweep moves on (or the process exits).
func runCell[T any](o Options, fn func(i int) (T, error), i int) (T, error) {
	if err := o.ctx().Err(); err != nil {
		var zero T
		return zero, fmt.Errorf("skipped: %w", err)
	}
	if o.CellTimeout <= 0 && o.Ctx == nil {
		return callCell(fn, i)
	}
	type result struct {
		v   T
		err error
	}
	ch := make(chan result, 1)
	go func() {
		v, err := callCell(fn, i)
		ch <- result{v, err}
	}()
	var deadline <-chan time.Time
	if o.CellTimeout > 0 {
		t := time.NewTimer(o.CellTimeout)
		defer t.Stop()
		deadline = t.C
	}
	select {
	case r := <-ch:
		return r.v, r.err
	case <-deadline:
		var zero T
		return zero, fmt.Errorf("no result after %v: %w", o.CellTimeout, ErrCellTimeout)
	case <-o.ctx().Done():
		var zero T
		return zero, fmt.Errorf("abandoned: %w", o.ctx().Err())
	}
}

// runCells executes fn(i) for every i in [0, n) on up to o.workers()
// goroutines and returns the results in index order. All cells run even if
// some fail; the returned error joins every per-cell error (nil if none).
// A panicking cell contributes a *PanicError rather than crashing the
// pool. Progress, when configured, observes each completed cell.
func runCells[T any](o Options, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if o.Progress != nil {
		o.Progress.AddCells(n)
	}
	results := make([]T, n)
	errs := make([]error, n)
	run := func(i int) {
		results[i], errs[i] = runCell(o, fn, i)
		if errs[i] != nil {
			errs[i] = fmt.Errorf("cell %d: %w", i, errs[i])
		}
		if o.Progress != nil {
			o.Progress.CellDone()
		}
	}
	if w := o.workers(); w <= 1 {
		// Sequential path: cells execute one at a time in submission
		// order, so Workers=1 behaves exactly like the pre-pool serial
		// code (and, with no Ctx or CellTimeout, runs entirely on the
		// calling goroutine).
		for i := 0; i < n; i++ {
			run(i)
		}
	} else {
		if w > n {
			w = n
		}
		idx := make(chan int)
		var wg sync.WaitGroup
		wg.Add(w)
		for g := 0; g < w; g++ {
			go func() {
				defer wg.Done()
				for i := range idx {
					run(i)
				}
			}()
		}
		for i := 0; i < n; i++ {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	return results, errors.Join(errs...)
}

// quarantinable reports whether err is a fault the sweep degrades around
// rather than fails on: a panicking cell, a cell past its deadline, or a
// cancelled sweep. Anything else (bad model name, invalid spec) is a
// genuine error and still fails the experiment.
func quarantinable(err error) bool {
	return errors.Is(err, ErrCellPanicked) || errors.Is(err, ErrCellTimeout) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// quarantine collects the cells a sweep completed *around*: panicked,
// timed-out, and cancelled (skipped or abandoned) cells, each reported
// by label in the table footer. It is shared by every runCells batch of
// one experiment and must be safe for concurrent use by pool workers.
type quarantine struct {
	mu       sync.Mutex
	entries  []string // "label: error" per quarantined cell
	canceled bool     // a cancelled cell has been filed
}

// record files one quarantined cell and mirrors it onto the trace bus
// (cell-panic / cell-timeout / sweep-cancel events) when tracing is on.
// The sweep-cancel event is emitted once, at the first cancelled cell.
func (q *quarantine) record(bus *trace.Bus, label string, timeout time.Duration, err error) {
	canceled := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	entry := fmt.Sprintf("%s: %v", label, err)
	if canceled {
		entry = fmt.Sprintf("%s: sweep cancelled: %v", label, err)
	}
	q.mu.Lock()
	q.entries = append(q.entries, entry)
	firstCancel := canceled && !q.canceled
	q.canceled = q.canceled || canceled
	q.mu.Unlock()
	if bus == nil {
		return
	}
	e := trace.Event{Step: -1, Layer: -1, Tensor: trace.NoTensor, Name: label, Run: label}
	switch {
	case errors.Is(err, ErrCellPanicked):
		e.Kind = trace.KCellPanic
	case errors.Is(err, ErrCellTimeout):
		e.Kind = trace.KCellTimeout
		e.Dur = simDur(timeout)
	case firstCancel:
		e.Kind = trace.KSweepCancel
	default:
		return
	}
	bus.Emit(e)
}

// report renders the quarantine as table footer notes: a leading
// incomplete-table marker, then one line per quarantined cell in sorted
// (deterministic) order. Empty when the sweep ran clean.
func (q *quarantine) report() []string {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.entries) == 0 {
		return nil
	}
	notes := []string{fmt.Sprintf("TABLE INCOMPLETE: %d cell(s) quarantined or skipped; affected cells render as n/a or zero",
		len(q.entries))}
	sorted := append([]string{}, q.entries...)
	sort.Strings(sorted)
	for _, e := range sorted {
		notes = append(notes, "quarantined "+e)
	}
	return notes
}
