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

// This file is the parallel experiment executor. Every figure and table is
// a sweep over independent cells — a simulation, a search or a study each
// — composed from two pieces. runCells fans a batch out over a bounded
// worker pool and returns the results in submission order, so the emitted
// tables are byte-identical to a sequential run. runCell is the sweep's
// one fault boundary around each labelled cell: a panicking cell, one past
// Options.CellTimeout, and one skipped or abandoned because Options.Ctx
// was cancelled (SIGINT/SIGTERM in sentinel-bench) are quarantined into
// the table's footer, so a long sweep always winds down to rendered — if
// partial — tables.

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

// ctx resolves the sweep context; nil means never cancelled.
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// callCell invokes fn with a panic boundary: a panic in the cell — a
// simulator bug, a bad model spec — becomes a *PanicError instead of
// crashing the worker pool or the caller.
func callCell[T any](fn func() (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// runCells executes fn(i) for every i in [0, n) on up to Options.Workers
// goroutines (GOMAXPROCS if unset; one worker runs the cells in
// submission order) and returns the results in index order. All cells
// run even if some fail; the returned error joins every per-cell error,
// each prefixed "cell i:" (nil if none). A panicking fn contributes a
// *PanicError rather than crashing the pool. Progress, when configured,
// observes each completed cell. The pool knows nothing of deadlines,
// cancellation or quarantine: a cell that needs them runs under runCell.
func runCells[T any](o Options, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if o.Progress != nil {
		o.Progress.AddCells(n)
	}
	results := make([]T, n)
	errs := make([]error, n)
	idx := make(chan int)
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	w = min(w, n)
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i], errs[i] = callCell(func() (T, error) { return fn(i) })
				if errs[i] != nil {
					errs[i] = fmt.Errorf("cell %d: %w", i, errs[i])
				}
				if o.Progress != nil {
					o.Progress.CellDone()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results, errors.Join(errs...)
}

// runCell runs fn as one sweep cell under the sweep's fault boundary.
// name returns the cell's label and the placeholder a quarantined cell
// yields; it is called only when one of them is used, because formatting
// a label for every cell of a sweep showed up in allocs/op.
//
// A cell is skipped if Options.Ctx is already cancelled;
// otherwise fn runs with panic recovery and, when CellTimeout or Ctx is
// set, on a child goroutine that is abandoned when the deadline expires or
// the sweep is cancelled — the simulator has no internal preemption
// points, so an abandoned cell's goroutine drains in the background while
// the sweep moves on (or the process exits).
//
// Inside an experiment (Run sets Options.quar), a panicking, timed-out,
// skipped or abandoned cell is filed for the table footer under its label
// and returns the placeholder, so the rest of the table still renders;
// any other error fails the experiment, prefixed with the label. Outside
// one (RunCell, RunPlan) every error is returned as it is.
func runCell[T any](o Options, name func() (label string, placeholder T), fn func() (T, error)) (T, error) {
	run := fn
	if o.labelHook != nil {
		run = func() (T, error) {
			label, _ := name()
			o.labelHook(label)
			return fn()
		}
	}
	var v T
	err := o.ctx().Err()
	switch {
	case err != nil:
		err = fmt.Errorf("skipped: %w", err)
	case o.CellTimeout <= 0 && o.Ctx == nil:
		v, err = callCell(run)
	default:
		type result struct {
			v   T
			err error
		}
		ch := make(chan result, 1)
		go func() {
			v, err := callCell(run)
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
			v, err = r.v, r.err
		case <-deadline:
			err = fmt.Errorf("no result after %v: %w", o.CellTimeout, ErrCellTimeout)
		case <-o.ctx().Done():
			err = fmt.Errorf("abandoned: %w", o.ctx().Err())
		}
	}
	if err == nil || o.quar == nil {
		return v, err
	}
	label, placeholder := name()
	if quarantinable(err) {
		o.quar.record(o.Trace, label, o.CellTimeout, err)
		return placeholder, nil
	}
	return v, fmt.Errorf("%s: %w", label, err)
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
// by label in the table footer. It is shared by every cell of one
// experiment and must be safe for concurrent use by pool workers.
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
		e.Dur = simtime.Duration(timeout.Nanoseconds()) // the deadline that expired
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
