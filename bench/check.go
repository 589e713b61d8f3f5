package bench

import (
	"fmt"
	"strings"

	"bside/internal/cfg"
	"bside/internal/eval"
	"bside/internal/ident"
)

// Status is the verdict class of one attempted operation.
type Status string

const (
	// Decided: the analysis produced a syscall set within its budget.
	Decided Status = "decided"
	// Undecided: the analysis exhausted its budget (an HTTP 422 from
	// serve). A correct outcome for an input engineered to be too
	// expensive; counted against decided_ratio, not as a failure.
	Undecided Status = "undecided"
	// Failed: panics, IO errors, transport errors, HTTP 429/5xx/499,
	// a 400 on a well-formed image, a missing warm entry.
	Failed Status = "failed"
)

// classifyErr sorts an analysis error message into Undecided (a budget
// exhaustion) or Failed. Errors reach the harness as text — across the
// child-process pipe and in HTTP bodies — so the test is on the budget
// sentinels' messages, which every wrapping keeps.
func classifyErr(msg string) Status {
	if strings.Contains(msg, cfg.ErrBudget.Error()) || strings.Contains(msg, ident.ErrTimeout.Error()) {
		return Undecided
	}
	return Failed
}

// Outcome is one attempted operation as the checker sees it.
type Outcome struct {
	ID       string
	Status   Status
	Syscalls []uint64
	FailOpen bool
	// Truth is the emulator-observed syscall set of the input.
	Truth []uint64
	// Detail is the error text of an undecided or failed outcome.
	Detail string
}

// Checker accumulates outcomes and correctness violations over a run.
// A violation is a wrong answer; a failure is an operation that gave no
// answer. Either fails the run, and they are counted apart.
type Checker struct {
	Attempted  int
	Failed     int
	Decided    int
	Violations []string
	Failures   []string

	// Quality is measured once per distinct input: a binary answered in
	// every pass, or a hash requested a hundred times, counts once.
	seen       map[string]bool
	identified int
	f1         float64
}

// maxMessages bounds how many violation or failure messages a run
// keeps; the counts are exact regardless.
const maxMessages = 20

func note(list *[]string, format string, args ...any) {
	if len(*list) < maxMessages {
		*list = append(*list, fmt.Sprintf(format, args...))
	} else if len(*list) == maxMessages {
		*list = append(*list, "further messages omitted")
	}
}

func (c *Checker) violate(format string, args ...any) { note(&c.Violations, format, args...) }

// Add checks one outcome: a decided result that is not fail-open must
// contain every truth syscall (truth ⊆ identified).
func (c *Checker) Add(o Outcome) {
	c.Attempted++
	switch o.Status {
	case Decided:
		c.Decided++
		if o.FailOpen {
			break
		}
		if missing := eval.FalseNegatives(o.Syscalls, o.Truth); len(missing) > 0 {
			c.violate("%s: truth syscalls %v missing from the identified set", o.ID, missing)
		}
		if c.seen[o.ID] {
			break
		}
		if c.seen == nil {
			c.seen = make(map[string]bool)
		}
		c.seen[o.ID] = true
		c.identified += len(o.Syscalls)
		_, _, f1 := eval.PRF1(o.Syscalls, o.Truth)
		c.f1 += f1
	case Undecided:
	default:
		c.Failed++
		note(&c.Failures, "%s: %s", o.ID, o.Detail)
	}
}

// Expect records a violation when an operation's result differs from
// the result an independent path produced for the same input.
func (c *Checker) Expect(id, want, got string) {
	if want != got {
		c.violate("%s: result differs from the reference:\n  want %.200q\n  got  %.200q", id, want, got)
	}
}

// Correct reports whether every answer the run checked was right.
func (c *Checker) Correct() bool { return len(c.Violations) == 0 }

// DecidedRatio is decided outcomes over attempted.
func (c *Checker) DecidedRatio() float64 { return ratio(c.Decided, c.Attempted) }

// FailedRatio is failed outcomes over attempted.
func (c *Checker) FailedRatio() float64 { return ratio(c.Failed, c.Attempted) }

// IdentifiedMean is the mean identified-set size over the distinct
// inputs with a decided result that is not fail-open.
func (c *Checker) IdentifiedMean() float64 { return ratio(c.identified, len(c.seen)) }

// F1Mean is the mean F1 score against emulator truth over the same
// inputs.
func (c *Checker) F1Mean() float64 {
	if len(c.seen) == 0 {
		return 0
	}
	return c.f1 / float64(len(c.seen))
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
