package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"sentinel/internal/simtime"
)

// Format names accepted by Export and the cmd-level -trace-format flags.
const (
	FormatChrome = "chrome" // Chrome trace-event JSON (Perfetto)
	FormatText   = "text"   // one line per event, timeline order
	FormatStalls = "stalls" // per-step stall-attribution summary
	FormatAuto   = "auto"   // chrome for .json paths, text otherwise
)

// formats is the export-format table, in Formats order.
var formats = []struct {
	name  string
	write func(io.Writer, []Event) error
}{
	{FormatChrome, WriteChrome},
	{FormatText, WriteText},
	{FormatStalls, WriteStallSummary},
}

// Formats lists the concrete export formats.
func Formats() []string {
	out := make([]string, len(formats))
	for i, f := range formats {
		out[i] = f.name
	}
	return out
}

// ResolveFormat maps FormatAuto to a concrete format by file extension
// (".json" means chrome, anything else text); concrete formats pass
// through unchanged.
func ResolveFormat(format, path string) string {
	if format != FormatAuto && format != "" {
		return format
	}
	if strings.HasSuffix(path, ".json") {
		return FormatChrome
	}
	return FormatText
}

// Export writes the events to w in the named format.
func Export(w io.Writer, format string, events []Event) error {
	for _, f := range formats {
		if f.name == format {
			return f.write(w, events)
		}
	}
	return fmt.Errorf("trace: unknown format %q (known: %v)", format, Formats())
}

// WriteText writes one line per event in timeline order. On buses shared
// across runs each line is prefixed with its run label.
func WriteText(w io.Writer, events []Event) error {
	multi := false
	for _, e := range events {
		if e.Run != "" {
			multi = true
			break
		}
	}
	for _, e := range Sorted(events) {
		var err error
		if multi {
			_, err = fmt.Fprintf(w, "[%s] %s\n", e.Run, e)
		} else {
			_, err = fmt.Fprintln(w, e)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// stallAgg accumulates stall attribution for one (run, step).
type stallAgg struct {
	run      string
	step     int
	total    simtime.Duration
	events   int
	byTensor map[string]simtime.Duration
	demands  int64
	demandB  int64
}

// WriteStallSummary writes a per-step accounting of where execution
// stalled: total exposed stall time, the tensors it is attributed to
// (descending), and the demand migrations that caused most of it. This is
// the textual counterpart of reading the compute track's stall slices in
// Perfetto.
func WriteStallSummary(w io.Writer, events []Event) error {
	type key struct {
		run  string
		step int
	}
	aggs := map[key]*stallAgg{}
	var order []key
	get := func(e Event) *stallAgg {
		k := key{e.Run, e.Step}
		a, ok := aggs[k]
		if !ok {
			a = &stallAgg{run: e.Run, step: e.Step, byTensor: map[string]simtime.Duration{}}
			aggs[k] = a
			order = append(order, k)
		}
		return a
	}
	for _, e := range Sorted(events) {
		switch e.Kind {
		case KStall:
			a := get(e)
			a.total += e.Dur
			a.events++
			name := e.Name
			if e.Tensor == NoTensor || name == "" {
				name = "(unattributed)"
			}
			a.byTensor[name] += e.Dur
		case KDemand:
			a := get(e)
			a.demands++
			a.demandB += e.Bytes
		}
	}
	if len(order) == 0 {
		_, err := fmt.Fprintln(w, "no stall or demand-migration events in trace")
		return err
	}
	lastRun := "\x00"
	for _, k := range order {
		a := aggs[k]
		if a.run != lastRun {
			lastRun = a.run
			label := a.run
			if label == "" {
				label = "run"
			}
			if _, err := fmt.Fprintf(w, "%s\n", label); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "  step %d: stall %v in %d events; %d demand migrations (%s)\n",
			a.step, a.total, a.events, a.demands, simtime.Bytes(a.demandB)); err != nil {
			return err
		}
		names := make([]string, 0, len(a.byTensor))
		for n := range a.byTensor {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool {
			if a.byTensor[names[i]] != a.byTensor[names[j]] {
				return a.byTensor[names[i]] > a.byTensor[names[j]]
			}
			return names[i] < names[j]
		})
		for _, n := range names {
			if _, err := fmt.Fprintf(w, "    %-28s %v\n", n, a.byTensor[n]); err != nil {
				return err
			}
		}
	}
	return nil
}
