package bench

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"bside/internal/serve"
)

// TestCheckerHasTeeth breaks answers the way a broken analyzer or
// service would and requires the checker to notice: a decided result
// missing one truth syscall fails the run, and a 500 is counted as a
// failure in failed_ratio.
func TestCheckerHasTeeth(t *testing.T) {
	truth := []uint64{0, 1, 60, 231}
	respond := func(status int, syscalls []uint64) *sample {
		body, err := json.Marshal(serve.ResultBody{Syscalls: syscalls, Names: []string{}, Imports: []string{}})
		if err != nil {
			t.Fatal(err)
		}
		in := &input{ID: "upload/x", Hash: "ab", Truth: truth}
		return &sample{req: request{in: in, upload: true}, status: status, body: body}
	}
	judge := func(samples ...*sample) *Checker {
		var c Checker
		for _, s := range samples {
			c.Add(outcome(s.item(), s.req.in))
		}
		return &c
	}

	superset := []uint64{0, 1, 3, 60, 231}
	if c := judge(respond(http.StatusOK, superset), respond(http.StatusOK, superset)); !c.Correct() || c.Failed != 0 {
		t.Fatalf("sound answers judged wrong: %v %v", c.Violations, c.Failures)
	}

	dropped := []uint64{0, 1, 3, 231} // 60 is in the truth set
	c := judge(respond(http.StatusOK, superset), respond(http.StatusOK, dropped), respond(http.StatusInternalServerError, superset))
	if c.Correct() {
		t.Error("a decided result missing a truth syscall must fail the run")
	} else if !strings.Contains(c.Violations[0], "[60]") {
		t.Errorf("violation does not name the missing syscall: %q", c.Violations[0])
	}
	if c.Failed != 1 || c.Attempted != 3 || !near(c.FailedRatio(), 1.0/3) {
		t.Errorf("failed=%d attempted=%d ratio=%v, want the 500 counted as 1 of 3", c.Failed, c.Attempted, c.FailedRatio())
	}

	// A budget exhaustion is undecided, not failed; any other 422 is a
	// failure.
	budget := respond(http.StatusUnprocessableEntity, nil)
	budget.body = []byte("identification: ident: analysis budget exhausted\n")
	other := respond(http.StatusUnprocessableEntity, nil)
	other.body = []byte("bside: dependency \"libx.so\" not found\n")
	c = judge(budget, other)
	if c.Failed != 1 || c.Decided != 0 || !c.Correct() {
		t.Errorf("budget 422 must be undecided and other 422 failed: failed=%d decided=%d", c.Failed, c.Decided)
	}

	// Fail-open answers are sound whatever they list.
	var open Checker
	open.Add(Outcome{ID: "x", Status: Decided, FailOpen: true, Truth: truth})
	if !open.Correct() {
		t.Error("a fail-open result allows every syscall and cannot miss one")
	}
}
