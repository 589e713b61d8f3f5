package eval

import (
	"errors"
	"fmt"
	"strings"

	"bside/internal/cfg"
	"bside/internal/corpus"
	"bside/internal/ident"
	"bside/internal/linux"
	"bside/internal/shared"
)

// FailPhase classifies why a B-Side analysis failed.
type FailPhase string

// Failure phases (§5.2's timeout breakdown).
const (
	FailPhaseNone    FailPhase = ""
	FailPhaseCFG     FailPhase = "cfg"
	FailPhaseWrapper FailPhase = "wrapper"
	FailPhaseIdent   FailPhase = "ident"
	FailPhaseOther   FailPhase = "other"
)

// DebianRow is one binary's outcome across the three tools.
type DebianRow struct {
	Name      string
	Static    bool
	Truth     []uint64
	BSide     ToolRun
	BPhase    FailPhase
	Chestnut  ToolRun
	SysFilter ToolRun
}

// DebianEval aggregates the 557-binary run.
type DebianEval struct {
	Rows []DebianRow
}

// EvalDebian runs all three tools over the Debian-shaped corpus. The
// shared-library interfaces are computed once and reused across
// programs (the decoupled analysis of §4.5).
func EvalDebian(set *corpus.Set) (*DebianEval, error) {
	an := shared.NewAnalyzer(set.LoadLib, ident.Config{})
	an.MaxCFGInsns = BSideCFGBudget

	out := &DebianEval{Rows: make([]DebianRow, 0, len(set.Debian))}
	for _, b := range set.Debian {
		row := DebianRow{Name: b.Profile.Name, Static: b.IsStatic(), Truth: b.Truth}

		rep, err := an.Program(b.Bin)
		if err != nil {
			row.BSide.Err = err
			row.BPhase = classifyFailure(err)
		} else if rep.FailOpen {
			// Soundness fallback: the effective filter is the full
			// table. Counted as a success with the full-table size.
			row.BSide.Syscalls = linux.All()
		} else {
			row.BSide.Syscalls = rep.Syscalls
		}

		row.Chestnut = runChestnut(b.Bin, set, BaselineCFGBudget)
		row.SysFilter = runSysFilter(b.Bin, set, BaselineCFGBudget)
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

func classifyFailure(err error) FailPhase {
	var be *ident.BudgetError
	switch {
	case errors.Is(err, cfg.ErrBudget):
		return FailPhaseCFG
	case errors.As(err, &be) && be.Stage == ident.StageWrappers:
		return FailPhaseWrapper
	case errors.Is(err, ident.ErrTimeout):
		return FailPhaseIdent
	default:
		return FailPhaseOther
	}
}

// toolStats aggregates one tool over a row subset.
type toolStats struct {
	success, failure int
	sumSyscalls      int
}

func (s toolStats) avg() float64 {
	if s.success == 0 {
		return 0
	}
	return float64(s.sumSyscalls) / float64(s.success)
}

func collect(rows []DebianRow, pick func(DebianRow) ToolRun, filter func(DebianRow) bool) toolStats {
	var s toolStats
	for _, r := range rows {
		if !filter(r) {
			continue
		}
		run := pick(r)
		if run.Err != nil {
			s.failure++
			continue
		}
		s.success++
		s.sumSyscalls += len(run.Syscalls)
	}
	return s
}

// Table2 renders the success/failure and average-set-size comparison.
func Table2(d *DebianEval) string {
	groups := []struct {
		name   string
		filter func(DebianRow) bool
	}{
		{"All binaries", func(DebianRow) bool { return true }},
		{"Static executables", func(r DebianRow) bool { return r.Static }},
		{"Dynamic executables", func(r DebianRow) bool { return !r.Static }},
	}
	tools := []struct {
		name string
		pick func(DebianRow) ToolRun
	}{
		{"B-Side", func(r DebianRow) ToolRun { return r.BSide }},
		{"Chestnut", func(r DebianRow) ToolRun { return r.Chestnut }},
		{"SysFilter", func(r DebianRow) ToolRun { return r.SysFilter }},
	}
	var b strings.Builder
	b.WriteString(fmt.Sprintf("Table 2: tool comparison over %d Debian-shaped binaries\n", len(d.Rows)))
	for _, g := range groups {
		total := 0
		for _, r := range d.Rows {
			if g.filter(r) {
				total++
			}
		}
		header := []string{g.name + fmt.Sprintf(" (%d)", total), "#Success", "#Failures", "Avg #syscalls"}
		var rows [][]string
		for _, tool := range tools {
			st := collect(d.Rows, tool.pick, g.filter)
			rows = append(rows, []string{
				tool.name,
				fmt.Sprintf("%d (%.1f%%)", st.success, 100*float64(st.success)/float64(total)),
				fmt.Sprintf("%d (%.1f%%)", st.failure, 100*float64(st.failure)/float64(total)),
				fmt.Sprintf("%.0f", st.avg()),
			})
		}
		b.WriteString(renderTable(header, rows))
		b.WriteByte('\n')
	}
	b.WriteString(FailureBreakdown(d))
	return b.String()
}

// FailureBreakdown reports which analysis phase B-Side's failures died
// in (§5.2: 73% CFG recovery, 15% identification, 12% wrapper
// detection).
func FailureBreakdown(d *DebianEval) string {
	counts := map[FailPhase]int{}
	total := 0
	for _, r := range d.Rows {
		if r.BSide.Err != nil {
			counts[r.BPhase]++
			total++
		}
	}
	if total == 0 {
		return "B-Side failures: none\n"
	}
	return fmt.Sprintf(
		"B-Side failure phases: CFG recovery %d (%.0f%%), identification %d (%.0f%%), wrapper detection %d (%.0f%%)\n",
		counts[FailPhaseCFG], 100*float64(counts[FailPhaseCFG])/float64(total),
		counts[FailPhaseIdent], 100*float64(counts[FailPhaseIdent])/float64(total),
		counts[FailPhaseWrapper], 100*float64(counts[FailPhaseWrapper])/float64(total))
}

// Figure8 renders the distribution histogram of identified-set sizes.
func Figure8(d *DebianEval) string {
	const bucketWidth = 10
	buckets := func(pick func(DebianRow) ToolRun) map[int]int {
		m := map[int]int{}
		for _, r := range d.Rows {
			run := pick(r)
			if run.Err != nil {
				continue
			}
			m[len(run.Syscalls)/bucketWidth]++
		}
		return m
	}
	bs := buckets(func(r DebianRow) ToolRun { return r.BSide })
	ch := buckets(func(r DebianRow) ToolRun { return r.Chestnut })
	sf := buckets(func(r DebianRow) ToolRun { return r.SysFilter })
	maxBucket := 0
	for _, m := range []map[int]int{bs, ch, sf} {
		for k := range m {
			if k > maxBucket {
				maxBucket = k
			}
		}
	}
	header := []string{"#Syscalls", "B-Side", "Chestnut", "SysFilter"}
	var rows [][]string
	for k := 0; k <= maxBucket; k++ {
		if bs[k] == 0 && ch[k] == 0 && sf[k] == 0 {
			continue
		}
		rows = append(rows, []string{
			fmt.Sprintf("%3d-%3d", k*bucketWidth, (k+1)*bucketWidth-1),
			histCell(bs[k]),
			histCell(ch[k]),
			histCell(sf[k]),
		})
	}
	return "Figure 8: distribution of identified-set sizes (successful runs)\n" +
		renderTable(header, rows)
}

func histCell(n int) string {
	if n == 0 {
		return ""
	}
	bar := strings.Repeat("#", (n+4)/5)
	return fmt.Sprintf("%-4d %s", n, bar)
}

// CVERow is one Table 5 line.
type CVERow struct {
	CVE       linux.CVE
	Protected float64 // fraction of B-Side-successful binaries protected
}

// Table5Rows computes per-CVE protection: a binary is protected when at
// least one syscall involved in the CVE is absent from its identified
// set (the derived filter would block the attack path).
func Table5Rows(d *DebianEval) []CVERow {
	var succ []DebianRow
	for _, r := range d.Rows {
		if r.BSide.Err == nil {
			succ = append(succ, r)
		}
	}
	out := make([]CVERow, 0, len(linux.CVEs))
	for _, cve := range linux.CVEs {
		protected := 0
		for _, r := range succ {
			have := make(map[uint64]bool, len(r.BSide.Syscalls))
			for _, n := range r.BSide.Syscalls {
				have[n] = true
			}
			blocked := false
			for _, s := range cve.Syscalls {
				if !have[s] {
					blocked = true
					break
				}
			}
			if blocked {
				protected++
			}
		}
		frac := 0.0
		if len(succ) > 0 {
			frac = float64(protected) / float64(len(succ))
		}
		out = append(out, CVERow{CVE: cve, Protected: frac})
	}
	return out
}

// Table5 renders CVE protection percentages.
func Table5(d *DebianEval) string {
	rows := Table5Rows(d)
	header := []string{"CVE", "Syscall(s)", "Type", "% protected"}
	var cells [][]string
	sum := 0.0
	for _, row := range rows {
		names := make([]string, len(row.CVE.Syscalls))
		for i, s := range row.CVE.Syscalls {
			names[i] = linux.Name(s)
		}
		types := make([]string, len(row.CVE.Types))
		for i, t := range row.CVE.Types {
			types[i] = string(t)
		}
		sum += row.Protected
		cells = append(cells, []string{
			row.CVE.ID,
			strings.Join(names, ", "),
			strings.Join(types, ","),
			fmt.Sprintf("%.2f%%", 100*row.Protected),
		})
	}
	avg := 0.0
	if len(rows) > 0 {
		avg = sum / float64(len(rows))
	}
	return fmt.Sprintf("Table 5: Debian binaries protected per CVE (avg %.2f%%)\n", 100*avg) +
		renderTable(header, cells)
}
