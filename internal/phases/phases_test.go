package phases

import (
	"reflect"
	"testing"

	"bside/internal/asm"
	"bside/internal/cfg"
	"bside/internal/elff"
	"bside/internal/ident"
	"bside/internal/testbin"
	"bside/internal/x86"
)

func buildGraph(t *testing.T, fn func(b *asm.Builder)) (*cfg.Graph, *ident.Report, map[string]uint64) {
	t.Helper()
	bin, syms := testbin.Build(t, elff.KindStatic, fn, nil)
	g, err := cfg.Recover(bin, cfg.Options{})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	rep, err := ident.Analyze(g, ident.Config{})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if rep.FailOpen {
		t.Fatal("unexpected fail-open")
	}
	return g, rep, syms
}

func detect(t *testing.T, g *cfg.Graph, rep *ident.Report, conf Config) *Automaton {
	t.Helper()
	a, err := Detect(Input{Graph: g, Emits: EmitsFromReport(rep)}, conf)
	if err != nil {
		t.Fatalf("detect: %v", err)
	}
	return a
}

func TestLinearPhases(t *testing.T) {
	// open(2); then read(0); then exit(60): three ordered transitions.
	g, rep, _ := buildGraph(t, func(b *asm.Builder) {
		b.Func("_start")
		b.MovRegImm32(x86.RAX, 2)
		b.Syscall()
		b.MovRegImm32(x86.RAX, 0)
		b.Syscall()
		b.MovRegImm32(x86.RAX, 60)
		b.Syscall()
		b.Ret()
	})
	a := detect(t, g, rep, Config{})
	if !reflect.DeepEqual(a.Alphabet, []uint64{0, 2, 60}) {
		t.Fatalf("alphabet: %v", a.Alphabet)
	}
	start := a.PhaseOf(a.Start)
	if !reflect.DeepEqual(start.Allowed, []uint64{2}) {
		t.Fatalf("start allowed: %v", start.Allowed)
	}
	// Follow 2 then 0 then 60.
	cur := start
	for _, step := range []uint64{2, 0, 60} {
		next := -1
		for dst, syms := range cur.Transitions {
			for _, s := range syms {
				if s == step {
					next = dst
				}
			}
		}
		if next < 0 {
			t.Fatalf("no transition on %d from phase %d", step, cur.ID)
		}
		cur = a.PhaseOf(next)
	}
	if len(cur.Allowed) != 0 {
		t.Fatalf("final phase must allow nothing, got %v", cur.Allowed)
	}
}

func TestLoopMergesIntoOnePhase(t *testing.T) {
	// A serving loop alternating read(0) and write(1): the cycle must
	// collapse into one phase allowing both.
	g, rep, _ := buildGraph(t, func(b *asm.Builder) {
		b.Func("_start")
		b.Label("loop")
		b.MovRegImm32(x86.RAX, 0)
		b.Syscall()
		b.MovRegImm32(x86.RAX, 1)
		b.Syscall()
		b.JmpLabel("loop")
	})
	a := detect(t, g, rep, Config{})
	// One phase must allow both 0 and 1 with self transitions.
	var serving *Phase
	for _, ph := range a.Phases {
		if reflect.DeepEqual(ph.Allowed, []uint64{0, 1}) {
			serving = ph
		}
	}
	if serving == nil {
		t.Fatalf("no merged serving phase: %+v", a.Phases)
	}
	if _, ok := serving.Transitions[serving.ID]; !ok {
		t.Fatal("serving phase must have self transitions")
	}
}

func TestInitVsServingStrictness(t *testing.T) {
	// Init does open(2)+bind(49), then a serving loop does only
	// read/write. The serving phase must NOT allow the init syscalls —
	// the strictness gain of §5.4.
	g, rep, _ := buildGraph(t, func(b *asm.Builder) {
		b.Func("_start")
		b.MovRegImm32(x86.RAX, 2)
		b.Syscall()
		b.MovRegImm32(x86.RAX, 49)
		b.Syscall()
		b.Label("loop")
		b.MovRegImm32(x86.RAX, 0)
		b.Syscall()
		b.MovRegImm32(x86.RAX, 1)
		b.Syscall()
		b.JmpLabel("loop")
	})
	a := detect(t, g, rep, Config{})
	var serving *Phase
	for _, ph := range a.Phases {
		if reflect.DeepEqual(ph.Allowed, []uint64{0, 1}) {
			serving = ph
		}
	}
	if serving == nil {
		t.Fatalf("no strict serving phase found: %+v", a.Phases)
	}
	start := a.PhaseOf(a.Start)
	if !reflect.DeepEqual(start.Allowed, []uint64{2}) {
		t.Fatalf("start allowed: %v", start.Allowed)
	}
}

func TestBackPropagation(t *testing.T) {
	g, rep, _ := buildGraph(t, func(b *asm.Builder) {
		b.Func("_start")
		b.MovRegImm32(x86.RAX, 2)
		b.Syscall()
		b.Label("loop")
		b.MovRegImm32(x86.RAX, 0)
		b.Syscall()
		b.JmpLabel("loop")
	})
	a := detect(t, g, rep, Config{BackPropagate: true})
	start := a.PhaseOf(a.Start)
	// With seccomp semantics the first phase must already allow the
	// serving syscall too.
	if !reflect.DeepEqual(start.Allowed, []uint64{0, 2}) {
		t.Fatalf("back-propagated allowed: %v", start.Allowed)
	}
}

func TestNaiveAgreesOnShape(t *testing.T) {
	g, rep, _ := buildGraph(t, func(b *asm.Builder) {
		b.Func("_start")
		b.MovRegImm32(x86.RAX, 2)
		b.Syscall()
		b.Label("loop")
		b.MovRegImm32(x86.RAX, 0)
		b.Syscall()
		b.MovRegImm32(x86.RAX, 1)
		b.Syscall()
		b.JmpLabel("loop")
	})
	in := Input{Graph: g, Emits: EmitsFromReport(rep)}
	naive := DetectNaive(in)
	if len(naive) == 0 {
		t.Fatal("naive found no phases")
	}
	// The serving loop shows up in both detectors with the same allow
	// set.
	found := false
	for _, ph := range naive {
		if reflect.DeepEqual(ph.Allowed, []uint64{0, 1}) {
			found = true
		}
	}
	if !found {
		t.Fatalf("naive phases: %+v", naive)
	}
}

func TestEmitsFromReportWrapperAttribution(t *testing.T) {
	g, rep, syms := buildGraph(t, func(b *asm.Builder) {
		b.Func("_start")
		b.MovRegImm32(x86.RDI, 39)
		b.CallLabel("w")
		b.MovRegImm32(x86.RAX, 60)
		b.Syscall()
		b.Ret()
		b.Func("w")
		b.MovRegReg(x86.RAX, x86.RDI)
		b.Syscall()
		b.Ret()
	})
	emits := EmitsFromReport(rep)
	// The wrapper's own syscall block must not emit; the call block
	// must emit 39.
	wblk, _ := g.BlockAt(syms["w"])
	if _, ok := emits[wblk.Addr]; ok {
		t.Fatalf("wrapper def must not emit: %v", emits)
	}
	foundCall := false
	for addr, set := range emits {
		if reflect.DeepEqual(set, []uint64{39}) {
			foundCall = true
		}
		_ = addr
	}
	if !foundCall {
		t.Fatalf("call-site emission missing: %v", emits)
	}
}

func TestDetectErrors(t *testing.T) {
	g, rep, _ := buildGraph(t, func(b *asm.Builder) {
		b.Func("_start")
		b.MovRegImm32(x86.RAX, 60)
		b.Syscall()
		b.Ret()
	})
	if _, err := Detect(Input{Graph: g, Emits: EmitsFromReport(rep), Start: 0x1}, Config{}); err == nil {
		t.Fatal("bad start must error")
	}
}
