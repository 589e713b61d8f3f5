package eval

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"bside/internal/baseline"
	"bside/internal/corpus"
	"bside/internal/elff"
	"bside/internal/ident"
	"bside/internal/phases"
	"bside/internal/pipeline"
	"bside/internal/shared"
)

// Budgets used by the harness; chosen so the corpus's engineered
// failure classes trip exactly the intended tool (see EXPERIMENTS.md
// §2 for the rationale behind the two values).
const (
	BSideCFGBudget    = 40_000
	BaselineCFGBudget = 60_000
)

// ToolRun is one tool's outcome on one program.
type ToolRun struct {
	Syscalls []uint64
	Err      error
	// FellBack marks Chestnut's permissive-fallback path.
	FellBack bool
}

// AppEval bundles every tool's result on one application.
type AppEval struct {
	Name      string
	Truth     []uint64
	BSide     ToolRun
	Chestnut  ToolRun
	SysFilter ToolRun

	// Report is B-Side's full program report (phases, Table 3).
	Report *shared.ProgramReport
	// TotalTime is B-Side's whole-analysis wall clock.
	TotalTime time.Duration
	// HeapBytes is the Go heap in use right after the analysis (the
	// in-process stand-in for peak RSS).
	HeapBytes uint64
}

// EvalApps runs B-Side, Chestnut and SysFilter over the six application
// profiles (Figure 7 / Table 1 / Table 3 inputs).
func EvalApps(set *corpus.Set) ([]*AppEval, error) {
	out := make([]*AppEval, 0, len(set.Apps))
	for _, app := range set.Apps {
		ev := &AppEval{Name: app.Profile.Name, Truth: app.Truth}

		start := time.Now()
		an := shared.NewAnalyzer(set.LoadLib, ident.Config{})
		rep, err := an.Program(app.Bin)
		ev.TotalTime = time.Since(start)
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		ev.HeapBytes = ms.HeapInuse
		if err != nil {
			ev.BSide.Err = err
		} else {
			ev.BSide.Syscalls = rep.Syscalls
			ev.Report = rep
		}

		ev.Chestnut = runChestnut(app.Bin, set, BaselineCFGBudget)
		ev.SysFilter = runSysFilter(app.Bin, set, BaselineCFGBudget)
		out = append(out, ev)
	}
	return out, nil
}

// runChestnut unions Chestnut's per-module results over the main binary
// and its dependency closure (the tool analyzes every module it can
// load).
func runChestnut(bin *elff.Binary, set *corpus.Set, budget int) ToolRun {
	res, err := baseline.ChestnutWithBudget(bin, budget)
	if err != nil {
		return ToolRun{Err: err}
	}
	run := ToolRun{Syscalls: res.Syscalls, FellBack: res.FellBack}
	for _, lib := range dependencyClosure(bin, set) {
		lres, err := baseline.ChestnutWithBudget(lib, budget)
		if err != nil {
			continue // tools skip modules they cannot process
		}
		run.Syscalls = Union(run.Syscalls, lres.Syscalls)
		run.FellBack = run.FellBack || lres.FellBack
	}
	return run
}

func runSysFilter(bin *elff.Binary, set *corpus.Set, budget int) ToolRun {
	res, err := baseline.SysFilterWithBudget(bin, budget)
	if err != nil {
		return ToolRun{Err: err}
	}
	run := ToolRun{Syscalls: res.Syscalls}
	for _, lib := range dependencyClosure(bin, set) {
		lres, err := baseline.SysFilterWithBudget(lib, budget)
		if err != nil {
			continue
		}
		run.Syscalls = Union(run.Syscalls, lres.Syscalls)
	}
	return run
}

func dependencyClosure(bin *elff.Binary, set *corpus.Set) []*elff.Binary {
	var out []*elff.Binary
	seen := map[string]bool{}
	var walk func(names []string)
	walk = func(names []string) {
		for _, n := range names {
			if seen[n] {
				continue
			}
			seen[n] = true
			lib, err := set.LoadLib(n)
			if err != nil {
				continue
			}
			out = append(out, lib)
			walk(lib.Needed)
		}
	}
	walk(bin.Needed)
	return out
}

// Figure7 renders the per-app identified counts, ground truth, and
// false negatives (the paper's validation figure).
func Figure7(apps []*AppEval) string {
	header := []string{"App", "Truth", "B-Side", "Chestnut", "SysFilter",
		"FN(B-Side)", "FN(Chestnut)", "FN(SysFilter)"}
	var rows [][]string
	for _, a := range apps {
		rows = append(rows, []string{
			a.Name,
			fmt.Sprint(len(a.Truth)),
			runCount(a.BSide),
			runCount(a.Chestnut),
			runCount(a.SysFilter),
			fnCount(a.BSide, a.Truth),
			fnCount(a.Chestnut, a.Truth),
			fnCount(a.SysFilter, a.Truth),
		})
	}
	return "Figure 7: system calls identified on 6 applications (ground truth = emulator trace)\n" +
		renderTable(header, rows)
}

func runCount(t ToolRun) string {
	if t.Err != nil {
		return "fail"
	}
	return fmt.Sprint(len(t.Syscalls))
}

func fnCount(t ToolRun, truth []uint64) string {
	if t.Err != nil {
		return "-"
	}
	return fmt.Sprint(len(FalseNegatives(t.Syscalls, truth)))
}

// Table1 renders per-app F1 scores.
func Table1(apps []*AppEval) string {
	header := []string{"Tool"}
	for _, a := range apps {
		header = append(header, a.Name)
	}
	header = append(header, "avg")
	rowFor := func(name string, pick func(*AppEval) ToolRun) []string {
		row := []string{name}
		var f1s []float64
		for _, a := range apps {
			run := pick(a)
			if run.Err != nil {
				row = append(row, "-")
				continue
			}
			_, _, f1 := PRF1(run.Syscalls, a.Truth)
			f1s = append(f1s, f1)
			row = append(row, fmt.Sprintf("%.2f", f1))
		}
		row = append(row, fmt.Sprintf("%.2f", mean(f1s)))
		return row
	}
	rows := [][]string{
		rowFor("B-Side", func(a *AppEval) ToolRun { return a.BSide }),
		rowFor("Chestnut", func(a *AppEval) ToolRun { return a.Chestnut }),
		rowFor("SysFilter", func(a *AppEval) ToolRun { return a.SysFilter }),
	}
	return "Table 1: F1 scores over the 6 applications\n" + renderTable(header, rows)
}

// Table3 renders analysis cost per application.
func Table3(apps []*AppEval) string {
	header := []string{"App", "CFG", "Wrappers", "Syscalls", "Total", "Heap", "BBs explored"}
	var rows [][]string
	for _, a := range apps {
		if a.Report == nil {
			rows = append(rows, []string{a.Name, "-", "-", "-", "-", "-", "-"})
			continue
		}
		tm := a.Report.Timings
		rows = append(rows, []string{
			a.Name,
			tm.Get(pipeline.StageDecode).Round(time.Microsecond).String(),
			tm.Get(pipeline.StageWrappers).Round(time.Microsecond).String(),
			tm.Get(pipeline.StageIdentify).Round(time.Microsecond).String(),
			a.TotalTime.Round(time.Microsecond).String(),
			fmt.Sprintf("%.1f MB", float64(a.HeapBytes)/(1<<20)),
			fmt.Sprint(a.Report.Main.Stats.BlocksExplored),
		})
	}
	return "Table 3: B-Side analysis cost per application\n" + renderTable(header, rows)
}

// PhaseSummary is Table 4 for one application.
type PhaseSummary struct {
	App       string
	Automaton *phases.Automaton
	// TotalSyscalls is the program-level identified count (the "/93"
	// in the paper's caption).
	TotalSyscalls int
}

// EvalPhases runs phase detection on one evaluated app.
func EvalPhases(app *AppEval) (*PhaseSummary, error) {
	if app.Report == nil {
		return nil, fmt.Errorf("eval: %s: no successful B-Side report", app.Name)
	}
	aut, err := phases.Detect(phases.Input{
		Graph: app.Report.Graph,
		Emits: app.Report.Emits(),
	}, phases.Config{})
	if err != nil {
		return nil, err
	}
	// Merge highly-connected small states like the paper does; its
	// published Nginx automaton has 15 phases, and this threshold puts
	// ours in the same regime.
	aut = aut.Compact(16)
	return &PhaseSummary{
		App:           app.Name,
		Automaton:     aut,
		TotalSyscalls: len(app.BSide.Syscalls),
	}, nil
}

// Table4 renders the phase transition matrix of one app's automaton.
func Table4(ps *PhaseSummary) string {
	aut := ps.Automaton
	// Only keep phases that matter for readability: all of them, but
	// the matrix is |P| x |P|.
	n := len(aut.Phases)
	header := []string{"Phase"}
	for i := 0; i < n; i++ {
		header = append(header, phaseName(i))
	}
	header = append(header, fmt.Sprintf("Total(/%d)", ps.TotalSyscalls), "Size(B)")
	var rows [][]string
	for i := 0; i < n; i++ {
		ph := aut.Phases[i]
		row := []string{phaseName(i)}
		for j := 0; j < n; j++ {
			if set, ok := ph.Transitions[j]; ok {
				row = append(row, fmt.Sprint(len(set)))
			} else {
				row = append(row, "-")
			}
		}
		row = append(row, fmt.Sprint(len(ph.Allowed)), fmt.Sprint(ph.CodeSize))
		rows = append(rows, row)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: %s phase automaton (%d phases, %d DFA states, start=%s)\n",
		ps.App, n, aut.DFAStates, phaseName(aut.Start))
	b.WriteString(renderTable(header, rows))
	// Strictness summary in the style of §5.4's closing numbers.
	var strict []float64
	for _, ph := range aut.Phases {
		if ps.TotalSyscalls > 0 && ph.CodeSize > 256 {
			strict = append(strict, 1-float64(len(ph.Allowed))/float64(ps.TotalSyscalls))
		}
	}
	sort.Float64s(strict)
	if len(strict) > 0 {
		fmt.Fprintf(&b, "strictness gain in large phases: %.0f%%-%.0f%% of the total set filtered\n",
			100*strict[0], 100*strict[len(strict)-1])
	}
	return b.String()
}

func phaseName(i int) string {
	if i < 26 {
		return string(rune('A' + i))
	}
	return fmt.Sprintf("P%d", i)
}
