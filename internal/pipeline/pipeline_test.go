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

// TestNarrowRegisterWritesMatchEmulator: a 1- or 2-byte write to a
// register keeps the bits above it, so the syscall number a site sees
// can combine an earlier constant with a narrow one; AH, CH, DH and BH
// are bits 8-15 of their register; movzx and movsx extend from their
// source's width, cwde from 16 bits; a 4-byte shift masks its count
// to five bits. Each program sets the number through such an
// instruction, then exits through syscall 60. The numbers are the
// hardware's. The emulator must execute them, and the analysis must
// stay decided and identify exactly them.
func TestNarrowRegisterWritesMatchEmulator(t *testing.T) {
	cases := []struct {
		name string
		body func(b *asm.Builder)
		nr   uint64
	}{
		{"mov al, cl", func(b *asm.Builder) {
			b.MovRegImm32(x86.RAX, 0x100)
			b.MovRegImm32(x86.RCX, 0x3c)
			b.Raw(0x88, 0xC8) // mov al, cl
		}, 0x13c},
		{"mov al, imm8", func(b *asm.Builder) {
			b.MovRegImm32(x86.RAX, 0x100)
			b.Raw(0xC6, 0xC0, 0x3c) // mov al, 0x3c
		}, 0x13c},
		{"xor al, al", func(b *asm.Builder) {
			b.MovRegImm32(x86.RAX, 0x127)
			b.Raw(0x30, 0xC0) // xor al, al
		}, 0x100},
		{"mov ax, imm16", func(b *asm.Builder) {
			b.MovRegImm32(x86.RAX, 0x20000)
			b.Raw(0x66, 0xB8, 0x3c, 0x00) // mov ax, 0x3c
			b.ShrRegImm(x86.RAX, 16)
		}, 2},
		{"lea cx", func(b *asm.Builder) {
			b.MovRegImm32(x86.RCX, 0x10000)
			b.MovRegImm32(x86.RDX, 0x3c)
			b.Raw(0x66, 0x8D, 0x0A) // lea cx, [rdx]
			b.MovRegReg(x86.RAX, x86.RCX)
			b.ShrRegImm(x86.RAX, 16)
		}, 1},
		{"movzx eax, cl", func(b *asm.Builder) {
			b.MovRegImm32(x86.RCX, 0x127)
			b.Raw(0x0F, 0xB6, 0xC1) // movzx eax, cl
		}, 0x27},
		{"movzx eax, cx", func(b *asm.Builder) {
			b.MovRegImm32(x86.RCX, 0x10027)
			b.Raw(0x0F, 0xB7, 0xC1) // movzx eax, cx
		}, 0x27},
		{"movsx eax, cl", func(b *asm.Builder) {
			b.MovRegImm32(x86.RCX, 0x127)
			b.Raw(0x0F, 0xBE, 0xC1) // movsx eax, cl
		}, 0x27},
		{"mov ah, imm8", func(b *asm.Builder) {
			b.MovRegImm32(x86.RAX, 0x27)
			b.Raw(0xC6, 0xC4, 0x01) // mov ah, 1
		}, 0x127},
		{"mov ah, cl", func(b *asm.Builder) {
			b.MovRegImm32(x86.RAX, 0x27)
			b.MovRegImm32(x86.RCX, 1)
			b.Raw(0x88, 0xCC) // mov ah, cl
		}, 0x127},
		{"movzx eax, ch", func(b *asm.Builder) {
			b.MovRegImm32(x86.RCX, 0x2700)
			b.Raw(0x0F, 0xB6, 0xC5) // movzx eax, ch
		}, 0x27},
		{"xor ah, ah", func(b *asm.Builder) {
			b.MovRegImm32(x86.RAX, 0x127)
			b.Raw(0x30, 0xE4) // xor ah, ah
		}, 0x27},
		{"cwde", func(b *asm.Builder) {
			b.MovRegImm32(x86.RAX, 0x10027)
			b.Raw(0x98) // cwde: sign-extend ax into eax
		}, 0x27},
		{"shl eax, 32", func(b *asm.Builder) {
			b.MovRegImm32(x86.RAX, 0x27)
			b.Raw(0xC1, 0xE0, 0x20) // shl eax, 32: the count masks to 0
		}, 0x27},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bin, _ := testbin.Build(t, elff.KindStatic, func(b *asm.Builder) {
				b.Func("_start")
				c.body(b)
				b.Syscall()
				b.MovRegImm32(x86.RAX, 60)
				b.Syscall()
				b.Ret()
			}, nil)
			m, err := emu.NewProcess(bin, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Run(1_000); err != nil {
				t.Fatal(err)
			}
			want := []uint64{c.nr, 60}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			truth := append([]uint64(nil), m.Trace...)
			sort.Slice(truth, func(i, j int) bool { return truth[i] < truth[j] })
			if !reflect.DeepEqual(truth, want) {
				t.Fatalf("emulator executed %v, want %v", truth, want)
			}
			res, err := Run(bin, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if rep := res.Report; !reflect.DeepEqual(rep.Syscalls, want) || rep.FailOpen {
				t.Fatalf("identified %v (fail-open %v), want %v decided", rep.Syscalls, rep.FailOpen, want)
			}
		})
	}
}

// TestTimingsRecorded: decode is measured, the callers' stages (stitch,
// phases) are absent from a pipeline run, and Total is the stage sum.
func TestTimingsRecorded(t *testing.T) {
	res, err := Run(testBinary(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Timings.Get(StageDecode) <= 0 {
		t.Fatal("decode cost not measured")
	}
	if res.Timings.Get(StageStitch) != 0 || res.Timings.Get(StagePhases) != 0 {
		t.Fatalf("stitch and phases must be absent from a pipeline run: %v", res.Timings)
	}
	var sum time.Duration
	for s := StageDecode; s <= StagePhases; s++ {
		sum += res.Timings.Get(s)
	}
	if res.Timings.Total() != sum {
		t.Fatal("Total is not the stage sum")
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
