package pipeline

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"bside/internal/asm"
	"bside/internal/cfg"
	"bside/internal/corpus"
	"bside/internal/elff"
	"bside/internal/emu"
	"bside/internal/ident"
	"bside/internal/symex"
	"bside/internal/testbin"
	"bside/internal/x86"
)

// testBinary synthesizes a mid-sized static binary with enough
// wrappers, handlers and sites to exercise every stage.
func testBinary(t testing.TB) *elff.Binary {
	t.Helper()
	bin, err := corpus.BuildProgram(corpus.Profile{
		Name: "pipe", Kind: elff.KindStatic,
		HotDirect: 12, HotWrapper: 4, HotStack: 2, Handlers: 2,
		ColdDirect: 8, ColdWrapper: 2, StackedTruth: 1,
		Filler: 30, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// TestRunMatchesMonolithicAnalyze: the staged pipeline must produce
// exactly what cfg.Recover + ident.Analyze produce.
func TestRunMatchesMonolithicAnalyze(t *testing.T) {
	bin := testBinary(t)

	g, err := cfg.Recover(bin, cfg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ident.Analyze(g, ident.Config{})
	if err != nil {
		t.Fatal(err)
	}

	res, err := Run(bin, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Report.Syscalls, want.Syscalls) {
		t.Fatalf("syscalls drifted: %v vs %v", res.Report.Syscalls, want.Syscalls)
	}
	if res.Report.FailOpen != want.FailOpen {
		t.Fatal("fail-open drifted")
	}
	if len(res.Report.Wrappers) != len(want.Wrappers) {
		t.Fatalf("wrappers drifted: %d vs %d", len(res.Report.Wrappers), len(want.Wrappers))
	}
}

// TestIndirectDispatchMatchesEmulator: the syscall number is set before
// a register-indirect transfer whose target a table indexed by RDI
// supplies, so the search reaches each site only through the symbolic
// indirect jump or call. The analysis must stay decided, and its set
// must equal what the emulator executes.
func TestIndirectDispatchMatchesEmulator(t *testing.T) {
	dispatch := func(b *asm.Builder) {
		b.Func("_start")
		b.MovRegImm32(x86.RAX, 39) // getpid
		b.Lea(x86.RDX, "table")
		b.MovRegMem(x86.RDX, x86.Mem{Base: x86.RDX, Index: x86.RDI, Scale: 8})
	}
	table := func(b *asm.Builder) {
		b.Label("__code_end")
		b.Align(8)
		b.Label("table")
		b.QuadLabel("case0")
		b.QuadLabel("case1")
	}
	cases := []struct {
		name  string
		build func(b *asm.Builder)
	}{
		{"jmp through a jump table", func(b *asm.Builder) {
			dispatch(b)
			b.JmpReg(x86.RDX)
			b.Func("case0")
			b.Syscall()
			b.JmpLabel("out")
			b.Func("case1")
			b.Syscall()
			b.Label("out")
			b.MovRegImm32(x86.RAX, 60)
			b.Syscall()
			b.Ret()
			table(b)
		}},
		{"call through a function-pointer table", func(b *asm.Builder) {
			dispatch(b)
			b.CallReg(x86.RDX)
			b.MovRegImm32(x86.RAX, 60)
			b.Syscall()
			b.Ret()
			b.Func("case0")
			b.Syscall()
			b.Ret()
			b.Func("case1")
			b.Syscall()
			b.Ret()
			table(b)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bin, _ := testbin.Build(t, elff.KindStatic, c.build, nil)
			m, err := emu.NewProcess(bin, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Run(10_000); err != nil {
				t.Fatal(err)
			}
			truth := append([]uint64(nil), m.Trace...)
			sort.Slice(truth, func(i, j int) bool { return truth[i] < truth[j] })
			res, err := Run(bin, Config{})
			if err != nil {
				t.Fatal(err)
			}
			want := []uint64{39, 60}
			if !reflect.DeepEqual(truth, want) {
				t.Fatalf("emulator executed %v, want %v", truth, want)
			}
			if rep := res.Report; !reflect.DeepEqual(rep.Syscalls, want) || rep.FailOpen {
				t.Fatalf("identified %v (fail-open %v), want %v decided", rep.Syscalls, rep.FailOpen, want)
			}
		})
	}
}

// TestTimingsRecorded: every per-binary stage must appear, in pipeline
// order, and Total must be their sum.
func TestTimingsRecorded(t *testing.T) {
	res, err := Run(testBinary(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := []Stage{StageDecode, StageWrappers, StageIdentify}
	if len(res.Timings) != len(wantOrder) {
		t.Fatalf("timings: %v", res.Timings)
	}
	var sum time.Duration
	for i, tm := range res.Timings {
		if tm.Stage != wantOrder[i] {
			t.Fatalf("stage %d = %v, want %v", i, tm.Stage, wantOrder[i])
		}
		sum += tm.Duration
	}
	if res.Timings.Total() != sum {
		t.Fatal("Total is not the stage sum")
	}
	if res.Timings.Get(StageDecode) <= 0 {
		t.Fatal("decode cost not measured")
	}
	if res.Timings.Get(StageStitch) != 0 {
		t.Fatal("stitch must be absent for a static binary")
	}
}

// siteKey reduces a SiteResult to its scheduling-independent identity.
type siteKey struct {
	Addr     uint64
	Kind     ident.SiteKind
	Wrapper  uint64
	Syscalls string
	FailOpen bool
}

func normalize(rep *ident.Report) []siteKey {
	out := make([]siteKey, 0, len(rep.Sites))
	for _, s := range rep.Sites {
		key := siteKey{Addr: s.Addr, Kind: s.Kind, Wrapper: s.Wrapper, FailOpen: s.FailOpen}
		key.Syscalls = fmt.Sprint(s.Syscalls)
		out = append(out, key)
	}
	return out
}

// TestWorkerCountInvariance: the whole Report — values, per-site
// details, ordering — must be identical at 1, 4 and 8 workers.
func TestWorkerCountInvariance(t *testing.T) {
	bin := testBinary(t)
	base, err := Run(bin, Config{Ident: ident.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 8} {
		res, err := Run(bin, Config{Ident: ident.Config{Workers: workers}})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(res.Report.Syscalls, base.Report.Syscalls) {
			t.Fatalf("workers=%d: syscalls drifted", workers)
		}
		if !reflect.DeepEqual(normalize(res.Report), normalize(base.Report)) {
			t.Fatalf("workers=%d: site details or ordering drifted", workers)
		}
		if !reflect.DeepEqual(res.Report.Wrappers, base.Report.Wrappers) {
			t.Fatalf("workers=%d: wrappers drifted", workers)
		}
		if !reflect.DeepEqual(res.Report.ReachableImports, base.Report.ReachableImports) {
			t.Fatalf("workers=%d: imports drifted", workers)
		}
		if res.Report.Stats.BlocksExplored != base.Report.Stats.BlocksExplored {
			t.Fatalf("workers=%d: explored %d blocks, serial explored %d",
				workers, res.Report.Stats.BlocksExplored, base.Report.Stats.BlocksExplored)
		}
	}
}

// TestDeadlineTimesOut: a deadline already in the past must surface as
// ident.ErrTimeout, the paper's wall-clock timeout semantics.
func TestDeadlineTimesOut(t *testing.T) {
	bud := symex.NewBudget()
	bud.Deadline = time.Now().Add(-time.Second)
	_, err := Run(testBinary(t), Config{Ident: ident.Config{Budget: bud}})
	if !errors.Is(err, ident.ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
}

// TestGraphReleasedAfterAnalysis: once a run's result is dropped, one
// GC must be able to collect its graph. A sync.Pool stays registered
// with the runtime until the second GC after its last use, so a pool
// embedded in a per-binary struct that points at the graph would keep
// every analyzed graph alive for up to two GC cycles.
func TestGraphReleasedAfterAnalysis(t *testing.T) {
	bin, err := corpus.BuildProgram(corpus.LargeBinaryProfile())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			released := make(chan struct{})
			func() {
				res, err := Run(bin, Config{Ident: ident.Config{Workers: workers}})
				if err != nil {
					t.Fatal(err)
				}
				runtime.SetFinalizer(res.Graph, func(*cfg.Graph) { close(released) })
			}()
			runtime.GC()
			select {
			case <-released:
			case <-time.After(2 * time.Second):
				t.Fatal("graph still reachable after one GC")
			}
		})
	}
}
