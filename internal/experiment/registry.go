package experiment

import "fmt"

// Func runs one experiment.
type Func func(Options) (*Table, error)

// experiments is the registry, in presentation order: the experiments
// "all" runs, then the raw-data dumps (extra) it skips.
var experiments = []struct {
	id    string
	run   Func
	extra bool
}{
	{"table1", Table1, false},
	{"table2", Table2, false},
	{"characterization", Characterization, false},
	{"fig5", Fig5, false},
	{"fig7", Fig7, false},
	{"fig8", Fig8, false},
	{"fig9", Fig9, false},
	{"fig10", Fig10, false},
	{"fig11", Fig11, false},
	{"table3", Table3, false},
	{"table4", Table4, false},
	{"fig12", Fig12, false},
	{"fig13", Fig13, false},
	{"table5", Table5, false},
	{"robustness", Robustness, false},
	{"online-robustness", OnlineRobustness, false},
	{"fig12-a100", Fig12A100, true},
	{"fig7-cxl", Fig7CXL, true},
	{"fig7-extended", Fig7Extended, true},
	{"fig9series", Fig9Series, true},
}

// find returns id's runner, or nil for an unknown id.
func find(id string) Func {
	for _, e := range experiments {
		if e.id == id {
			return e.run
		}
	}
	return nil
}

// Run executes the named experiment. The runner fans its cells out over
// the worker pool (Options.Workers wide) and memoizes shared stages in
// Options.Cache — a fresh per-experiment cache is created here unless the
// caller shares one across experiments or disables caching.
//
// Cells that panic, exceed Options.CellTimeout, or are cancelled by
// Options.Ctx are quarantined rather than fatal: the rest of the sweep
// completes and the table renders with an incomplete-table marker and one
// footer note per quarantined cell.
func Run(id string, o Options) (*Table, error) {
	f := find(id)
	if f == nil {
		return nil, fmt.Errorf("experiment: unknown id %q (known: %v)", id, IDs())
	}
	o = o.normalized()
	t, err := f(o)
	if err != nil {
		return nil, err
	}
	if t != nil {
		t.Notes = append(t.Notes, o.quar.report()...)
	}
	return t, nil
}

// IDs lists experiment ids in presentation order. Raw-dump experiments
// (extras) come last.
func IDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

// DefaultIDs lists the experiments run by "all" (no raw dumps).
func DefaultIDs() []string {
	var ids []string
	for _, e := range experiments {
		if !e.extra {
			ids = append(ids, e.id)
		}
	}
	return ids
}
