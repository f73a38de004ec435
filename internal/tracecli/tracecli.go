// Package tracecli wires the unified trace bus (internal/trace) into the
// command-line tools: every binary declares the same -trace and
// -trace-format flag pair through Register and exports captured events
// through Write, so tracing behaves identically across sentinel-train,
// sentinel-bench, sentinel-profile, and sentinel-validate. The daemon
// (sentinel-serve) reuses the same format set per request via
// ValidFormat and ExportBus.
package tracecli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"sentinel/internal/trace"
)

// ValidFormat reports whether format names a concrete exportable trace
// format ("auto" is not concrete — it needs a file path to resolve).
// Request-scoped tracing (sentinel-serve's trace_format field) uses this
// to validate before running the traced cell.
func ValidFormat(format string) bool {
	return slices.Contains(trace.Formats(), format)
}

// ExportBus writes a bus's captured events to w in the named concrete
// format. It is the streaming (per-request) counterpart of Flags.Write:
// sentinel-serve attaches a private bus to a traced request and exports
// it straight into the HTTP response body. A nil bus exports an empty
// event stream.
func ExportBus(w io.Writer, format string, bus *trace.Bus) error {
	if !ValidFormat(format) {
		return fmt.Errorf("trace format %q: want one of %v", format, trace.Formats())
	}
	var events []trace.Event
	if bus != nil {
		events = bus.Events()
	}
	return trace.Export(w, format, events)
}

// Flags holds one binary's trace flag values and its capture bus.
type Flags struct {
	// Path is the -trace destination; empty disables tracing, "-" means
	// stdout.
	Path string
	// Format is the -trace-format value; see trace.Formats.
	Format string

	bus *trace.Bus
}

// Register declares -trace and -trace-format on the default flag set.
// Call before flag.Parse.
func Register() *Flags {
	f := &Flags{}
	flag.StringVar(&f.Path, "trace", "",
		"write a runtime event trace to this file ('-' for stdout)")
	flag.StringVar(&f.Format, "trace-format", trace.FormatAuto,
		fmt.Sprintf("trace format: one of %v, or auto (chrome for .json paths, text otherwise)", trace.Formats()))
	return f
}

// Enabled reports whether tracing was requested.
func (f *Flags) Enabled() bool { return f.Path != "" }

// Bus returns the capture bus, creating it on first use. Returns nil when
// tracing is not requested, which downstream option plumbing treats as
// "tracing off".
func (f *Flags) Bus() *trace.Bus {
	if !f.Enabled() {
		return nil
	}
	if f.bus == nil {
		f.bus = trace.NewBus(0)
	}
	return f.bus
}

// Write exports the captured events to Path in the resolved format; a
// no-op when tracing was not requested. If the ring overflowed during the
// run, a note about the dropped head goes to stderr.
func (f *Flags) Write() error {
	if !f.Enabled() || f.bus == nil {
		return nil
	}
	if n := f.bus.Dropped(); n > 0 {
		fmt.Fprintf(os.Stderr, "trace: ring overflowed; oldest %d events dropped\n", n)
	}
	format := trace.ResolveFormat(f.Format, f.Path)
	if f.Path == "-" {
		return trace.Export(os.Stdout, format, f.bus.Events())
	}
	file, err := os.Create(f.Path)
	if err != nil {
		return err
	}
	if err := trace.Export(file, format, f.bus.Events()); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}
