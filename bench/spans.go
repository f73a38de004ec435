package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// spanLog holds the spans a traced run records around the benchmark's
// calls into each layer. Spans stay in memory and are written once, at
// exit. A nil *spanLog records nothing, but its spans still time:
// untraced runs measure through exactly the same calls.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

// span is one timed call. All spans of one op share its id; a root span
// has parent -1.
type span struct {
	name       string
	op         int64
	parent     int
	start, end time.Duration // wall clock, from the log's epoch
	cpu        time.Duration
	done       bool
}

func newSpanLog() *spanLog { return &spanLog{epoch: now()} }

// openSpan is a span being timed.
type openSpan struct {
	log *spanLog
	idx int
	t   timer
}

// begin opens a span named name for op under the span at index parent
// (-1 for none).
func (l *spanLog) begin(name string, op int64, parent int) openSpan {
	s := openSpan{log: l, idx: -1, t: startTimer()}
	if l == nil {
		return s
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s.idx = len(l.spans)
	l.spans = append(l.spans, span{name: name, op: op, parent: parent, start: s.t.wall.Sub(l.epoch)})
	return s
}

// end closes the span and returns what it measured.
func (s openSpan) end() lap {
	d := s.t.lap()
	if s.log != nil {
		s.log.mu.Lock()
		sp := &s.log.spans[s.idx]
		sp.end, sp.cpu, sp.done = sp.start+d.wall, d.cpu, true
		s.log.mu.Unlock()
	}
	return d
}

// selfTime is one span name's total self time: each span's CPU time
// minus its children's.
type selfTime struct {
	Name  string  `json:"name"`
	MS    float64 `json:"ms"`
	Count int     `json:"count"`
}

// selfTimes aggregates self time by span name, largest first. Children
// of one span run one after another, so their CPU times add up.
func (l *spanLog) selfTimes() []selfTime {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	children := make([]time.Duration, len(l.spans))
	for _, s := range l.spans {
		if s.parent >= 0 && s.done {
			children[s.parent] += s.cpu
		}
	}
	byName := map[string]*selfTime{}
	var out []*selfTime
	for i, s := range l.spans {
		if !s.done {
			continue
		}
		st, ok := byName[s.name]
		if !ok {
			st = &selfTime{Name: s.name}
			byName[s.name] = st
			out = append(out, st)
		}
		st.MS += ms(s.cpu - children[i])
		st.Count++
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].MS > out[j].MS })
	res := make([]selfTime, len(out))
	for i, st := range out {
		res[i] = *st
	}
	return res
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto and chrome://tracing load.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as a Chrome trace-event file on the wall
// clock's timeline, with each span's CPU time as an argument. The layer
// (the span name up to its first dot) becomes the event category.
func (l *spanLog) writeChrome(path string) error {
	l.mu.Lock()
	events := make([]chromeEvent, 0, len(l.spans))
	for _, s := range l.spans {
		if !s.done {
			continue
		}
		cat, _, _ := strings.Cut(s.name, ".")
		args := map[string]any{"op": s.op, "cpu_ms": ms(s.cpu)}
		if s.parent >= 0 {
			args["parent"] = l.spans[s.parent].name
		}
		events = append(events, chromeEvent{Name: s.name, Cat: cat, Ph: "X",
			Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: 1, Args: args})
	}
	l.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
