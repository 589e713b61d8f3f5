package filter

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bside/internal/linux"
)

func TestCompileEmpty(t *testing.T) {
	p, err := Compile(nil, ActionErrno)
	if err != nil {
		t.Fatal(err)
	}
	for _, nr := range []uint64{0, 1, 60, 334} {
		if p.Allows(nr) {
			t.Errorf("empty filter allows %d", nr)
		}
	}
}

func TestCompileSingles(t *testing.T) {
	allowed := []uint64{0, 1, 60, 231}
	p, err := Compile(allowed, ActionKill)
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]bool{0: true, 1: true, 60: true, 231: true}
	for nr := uint64(0); nr < 400; nr++ {
		if p.Allows(nr) != want[nr] {
			t.Fatalf("nr %d: allows=%v want %v", nr, p.Allows(nr), want[nr])
		}
	}
}

func TestCompileRangeFolding(t *testing.T) {
	// 10..20 contiguous plus islands: the compiler folds ranges.
	var allowed []uint64
	for n := uint64(10); n <= 20; n++ {
		allowed = append(allowed, n)
	}
	allowed = append(allowed, 100, 102, 103, 104, 300)
	p, err := Compile(allowed, ActionErrno)
	if err != nil {
		t.Fatal(err)
	}
	set := map[uint64]bool{}
	for _, n := range allowed {
		set[n] = true
	}
	for nr := uint64(0); nr < 400; nr++ {
		if p.Allows(nr) != set[nr] {
			t.Fatalf("nr %d mismatch", nr)
		}
	}
	// Folding keeps the program small: 11+5 values but only 5 ranges.
	if len(p.Insns) > 40 {
		t.Errorf("program too large: %d insns", len(p.Insns))
	}
}

func TestCompileFullTable(t *testing.T) {
	p, err := Compile(linux.All(), ActionErrno)
	if err != nil {
		t.Fatal(err)
	}
	// The whole table folds into one range: constant-size program.
	if len(p.Insns) > 8 {
		t.Errorf("full-table program should be tiny, got %d insns", len(p.Insns))
	}
	if !p.Allows(0) || !p.Allows(uint64(linux.MaxSyscall)) || p.Allows(uint64(linux.TableSize)) {
		t.Error("full-table filter boundaries wrong")
	}
}

func TestValidateCatchesBrokenPrograms(t *testing.T) {
	p := &Program{Insns: []Insn{{Op: opLdAbs}}}
	if err := p.Validate(); err == nil {
		t.Error("missing return not caught")
	}
	p = &Program{Insns: []Insn{{Op: opJeqK, Jt: 200, Jf: 200, K: 1}, {Op: opRetK}}}
	if err := p.Validate(); err == nil {
		t.Error("out-of-range jump not caught")
	}
	p = &Program{Insns: []Insn{{Op: opLdAbs, K: 8}, {Op: opRetK}}}
	if err := p.Validate(); err == nil {
		t.Error("load outside nr and arch not caught")
	}
	p = &Program{Insns: []Insn{{Op: 0x99}, {Op: opRetK}}}
	if err := p.Validate(); err == nil {
		t.Error("bad opcode not caught")
	}
	p = &Program{}
	if err := p.Validate(); err == nil {
		t.Error("empty program not caught")
	}
}

// TestPropertyCompileExecEquivalence: Exec(Compile(S), n) == (n in S)
// for random allow sets.
func TestPropertyCompileExecEquivalence(t *testing.T) {
	f := func(raw []uint16) bool {
		set := map[uint64]bool{}
		var allowed []uint64
		for _, v := range raw {
			n := uint64(v % 512)
			if !set[n] {
				set[n] = true
				allowed = append(allowed, n)
			}
		}
		p, err := Compile(allowed, ActionErrno)
		if err != nil {
			t.Logf("compile: %v", err)
			return false
		}
		if err := p.Validate(); err != nil {
			t.Logf("validate: %v", err)
			return false
		}
		for nr := uint64(0); nr < 520; nr++ {
			if p.Allows(nr) != set[nr] {
				t.Logf("nr %d: got %v want %v (set size %d)", nr, p.Allows(nr), set[nr], len(allowed))
				return false
			}
		}
		return true
	}
	conf := &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, conf); err != nil {
		t.Fatal(err)
	}
}

func TestActionsAndStrings(t *testing.T) {
	if ActionAllow.String() != "allow" || ActionKill.String() != "kill" || ActionErrno.String() != "errno" {
		t.Error("action strings")
	}
	if _, err := Compile([]uint64{1}, ActionAllow); err == nil {
		t.Error("allow as default must be rejected")
	}
	p, _ := Compile([]uint64{1, 5, 9}, ActionErrno)
	for _, in := range p.Insns {
		if in.String() == "" {
			t.Error("empty insn string")
		}
	}
	if a, err := p.Exec(AuditArchX86_64, 5); err != nil || a != ActionAllow {
		t.Errorf("exec: %v %v", a, err)
	}
	// A denied call fails with SECCOMP_RET_ERRNO and EPERM; with errno 0
	// it would read as success.
	if a, err := p.Exec(AuditArchX86_64, 6); err != nil || a != ActionErrno || a&0xFFFF0000 != 0x00050000 || a&0xFFFF != 1 {
		t.Errorf("exec deny: %#x %v", uint32(a), err)
	}
}

func TestDeepTreeStaysInJumpRange(t *testing.T) {
	// Many isolated singletons force a deep tree; all jumps must stay
	// within the 8-bit range and the program within limits.
	var allowed []uint64
	for n := uint64(0); n < 335; n += 2 {
		allowed = append(allowed, n)
	}
	p, err := Compile(allowed, ActionErrno)
	if err != nil {
		t.Fatal(err)
	}
	for nr := uint64(0); nr < 340; nr++ {
		want := nr%2 == 0 && nr < 335
		if p.Allows(nr) != want {
			t.Fatalf("nr %d mismatch", nr)
		}
	}
}

// TestOnlyNativeCallsAllowed: an allowed number is denied when it
// arrives as an i386 call or with the x32 bit set.
func TestOnlyNativeCallsAllowed(t *testing.T) {
	const auditArchI386 = 0x40000003
	allowed := []uint64{0, 1, 60, 231}
	for _, deny := range []Action{ActionErrno, ActionKill} {
		p, err := Compile(allowed, deny)
		if err != nil {
			t.Fatal(err)
		}
		for _, nr := range allowed {
			if !p.Allows(nr) {
				t.Errorf("x86-64 call %d denied", nr)
			}
			if a, err := p.Exec(auditArchI386, nr); err != nil || a != deny {
				t.Errorf("i386 call %d: %v %v, want %v", nr, a, err, deny)
			}
			if a, err := p.Exec(AuditArchX86_64, nr|x32Bit); err != nil || a != deny {
				t.Errorf("x32 call %d: %v %v, want %v", nr, a, err, deny)
			}
		}
	}
}
