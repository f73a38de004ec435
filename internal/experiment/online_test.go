package experiment

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"sentinel/internal/exec"
	"sentinel/internal/memsys"
	"sentinel/internal/metrics"
)

// onlineTwin is one online-robustness rung's static and online runs.
type onlineTwin struct {
	name           string
	static, online *metrics.RunStats
}

// runOnlineTwins runs every online-robustness rung's static and online
// cells as the table does, through o's cache.
func runOnlineTwins(t *testing.T, o Options) []onlineTwin {
	t.Helper()
	spec, _, err := o.fastSized(memsys.GPUHM(), onlineModel, onlineBatch)
	if err != nil {
		t.Fatal(err)
	}
	var twins []onlineTwin
	for _, r := range onlineRungs {
		c := cellRun{model: onlineModel, batch: onlineBatch, spec: spec,
			policy: "sentinel-gpu", steps: onlineSteps, chaos: r.cfg}
		static, err := o.run(c)
		if err != nil {
			t.Fatalf("%s static: %v", r.name, err)
		}
		c.online = exec.DefaultOnline()
		online, err := o.run(c)
		if err != nil {
			t.Fatalf("%s online: %v", r.name, err)
		}
		twins = append(twins, onlineTwin{r.name, static, online})
	}
	return twins
}

// firstDiverged returns the index of the run's first plan-diverged step,
// or len(steps) when none diverged.
func firstDiverged(run *metrics.RunStats) int {
	for i, st := range run.Steps {
		if st.Diverged {
			return i
		}
	}
	return len(run.Steps)
}

// TestOnlineTwinsMatchUntilDivergence checks that the static and online
// controllers judge alike: the two differ only in what they do once
// divergence is declared, so each rung's twins must give identical step
// stats up to and including the first plan-diverged step of either, and
// for the whole run where neither diverges.
func TestOnlineTwinsMatchUntilDivergence(t *testing.T) {
	for _, tw := range runOnlineTwins(t, Options{Cache: NewCache()}) {
		n := min(firstDiverged(tw.static), firstDiverged(tw.online))
		last := min(n+1, len(tw.static.Steps))
		for i := 0; i < last; i++ {
			if s, o := tw.static.Steps[i], tw.online.Steps[i]; !reflect.DeepEqual(s, o) {
				t.Errorf("%s: step %d differs before divergence:\n static %+v\n online %+v", tw.name, i, s, o)
				break
			}
		}
	}
}

// TestOnlineRecovery pins the headline claim of the online controller:
// on every rung whose static cell diverged, the adaptive run wins back at
// least half of the static-degraded-vs-clean slowdown; at least one rung
// recovers through a genuine mid-run replan; no online run ends with more
// demand traffic than its static twin, and one whose static twin diverged
// ends with strictly less. Two back-to-back runs on fresh caches must
// render byte-identically.
func TestOnlineRecovery(t *testing.T) {
	o := Options{Steps: onlineSteps, Cache: NewCache()}
	render := func(o Options) *Table {
		tbl, err := Run("online-robustness", o)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	a, b := render(o), render(Options{Steps: onlineSteps, Cache: NewCache()})
	if a.String() != b.String() {
		t.Fatalf("two seeded online sweeps differ:\n--- first\n%s\n--- second\n%s", a, b)
	}
	twins := runOnlineTwins(t, o)
	if len(twins) != len(a.Rows) {
		t.Fatalf("%d rungs, %d rows", len(twins), len(a.Rows))
	}

	// Columns: fault, clean, static, online, gap recovered, replans,
	// recovered steps, demand static/online.
	diverged, replanned := 0, 0
	for i, row := range a.Rows {
		if len(row) != len(a.Header) {
			t.Fatalf("row %q has %d cells, want %d", row[0], len(row), len(a.Header))
		}
		staticDiverged := twins[i].static.Diverged
		if staticDiverged {
			diverged++
			pct, err := strconv.ParseFloat(strings.TrimSuffix(row[4], "%"), 64)
			if err != nil {
				t.Fatalf("row %q: bad gap-recovered cell %q: %v", row[0], row[4], err)
			}
			if pct < 50 {
				t.Errorf("row %q: static cell diverged but online recovered %.0f%% of the gap, want >= 50%%", row[0], pct)
			}
		}
		replans, err := strconv.Atoi(row[5])
		if err != nil {
			t.Fatalf("row %q: bad replans cell %q: %v", row[0], row[5], err)
		}
		recovered, err := strconv.Atoi(row[6])
		if err != nil {
			t.Fatalf("row %q: bad recovered-steps cell %q: %v", row[0], row[6], err)
		}
		if replans > 0 && recovered > 0 {
			replanned++
		}
		demand := strings.SplitN(row[7], "/", 2)
		if len(demand) != 2 {
			t.Fatalf("row %q: bad demand cell %q", row[0], row[7])
		}
		ds, err1 := strconv.Atoi(demand[0])
		do, err2 := strconv.Atoi(demand[1])
		if err1 != nil || err2 != nil {
			t.Fatalf("row %q: bad demand cell %q", row[0], row[7])
		}
		switch {
		case do > ds:
			t.Errorf("row %q: online demand migrations %d above static %d", row[0], do, ds)
		case staticDiverged && do == ds:
			t.Errorf("row %q: static cell diverged but online demand migrations %d not below static %d", row[0], do, ds)
		}
	}
	if diverged == 0 {
		t.Errorf("no static cell diverged; the table tests no recovery:\n%s", a)
	}
	if replanned < 1 {
		t.Errorf("no rung recovered via a mid-run replan (replans > 0 and recovered steps > 0):\n%s", a)
	}
}
