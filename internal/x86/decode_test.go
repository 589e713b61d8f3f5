package x86

import (
	"encoding/hex"
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// TestDecodeKnownBytes checks hand-verified encodings against the
// decoder (spot checks independent of our own assembler).
func TestDecodeKnownBytes(t *testing.T) {
	cases := []struct {
		name  string
		bytes []byte
		want  string
	}{
		{"syscall", []byte{0x0F, 0x05}, "syscall"},
		{"mov eax, 60", []byte{0xB8, 0x3C, 0, 0, 0}, "mov"},
		{"xor edi,edi", []byte{0x31, 0xFF}, "xor"},
		{"mov rax,rdi", []byte{0x48, 0x89, 0xF8}, "mov"},
		{"mov rax,[rsp+8]", []byte{0x48, 0x8B, 0x44, 0x24, 0x08}, "mov"},
		{"lea rsi,[rip+0x10]", []byte{0x48, 0x8D, 0x35, 0x10, 0, 0, 0}, "lea"},
		{"call rel32", []byte{0xE8, 0x10, 0, 0, 0}, "call"},
		{"ret", []byte{0xC3}, "ret"},
		{"push rbp", []byte{0x55}, "push"},
		{"endbr64", []byte{0xF3, 0x0F, 0x1E, 0xFA}, "endbr64"},
		{"jne rel8", []byte{0x75, 0x02}, "j"},
		{"nopw 0F1F", []byte{0x66, 0x0F, 0x1F, 0x44, 0x00, 0x00}, "nop"},
	}
	for _, tc := range cases {
		var inst Inst
		err := Decode(&inst, tc.bytes, 0x1000)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if int(inst.Len) != len(tc.bytes) {
			t.Errorf("%s: len %d want %d", tc.name, inst.Len, len(tc.bytes))
		}
		if inst.Op.String()[:1] != tc.want[:1] {
			t.Errorf("%s: got %v", tc.name, inst)
		}
	}
}

func TestDecodeOperandDetails(t *testing.T) {
	// mov rax, [rsp+8]
	var inst Inst
	err := Decode(&inst, []byte{0x48, 0x8B, 0x44, 0x24, 0x08}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m := inst.Mem(inst.Src); inst.Dst.Reg != RAX || m.Base != RSP || m.Disp != 8 || inst.OpSize != 8 {
		t.Fatalf("got %v", inst)
	}

	// mov eax, 1 — zero extension semantics flagged via OpSize 4.
	err = Decode(&inst, []byte{0xB8, 0x01, 0, 0, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if inst.OpSize != 4 || inst.Src.Kind != KindImm || inst.Imm != 1 {
		t.Fatalf("got %v size=%d", inst, inst.OpSize)
	}

	// jcc target arithmetic: 75 FE at 0x100 -> jne 0x100.
	err = Decode(&inst, []byte{0x75, 0xFE}, 0x100)
	if err != nil {
		t.Fatal(err)
	}
	if tgt, ok := inst.BranchTarget(); !ok || tgt != 0x100 {
		t.Fatalf("target %#x", tgt)
	}

	// call -5 at 0: E8 FB FF FF FF -> target 0.
	err = Decode(&inst, []byte{0xE8, 0xFB, 0xFF, 0xFF, 0xFF}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tgt, _ := inst.BranchTarget(); tgt != 0 {
		t.Fatalf("target %#x", tgt)
	}

	// RIP-relative EA: lea rsi, [rip+0x10] at 0x2000, len 7 -> 0x2017.
	err = Decode(&inst, []byte{0x48, 0x8D, 0x35, 0x10, 0, 0, 0}, 0x2000)
	if err != nil {
		t.Fatal(err)
	}
	if ea, ok := inst.MemEA(inst.Src); !ok || ea != 0x2017 {
		t.Fatalf("EA %#x", ea)
	}
}

func TestDecodeErrors(t *testing.T) {
	if err := Decode(new(Inst), nil, 0); err == nil {
		t.Fatal("empty input must error")
	}
	if err := Decode(new(Inst), []byte{0x48}, 0); err == nil {
		t.Fatal("lone REX must error")
	}
	if err := Decode(new(Inst), []byte{0xE8, 0x01}, 0); err == nil {
		t.Fatal("truncated call must error")
	}
	// An opcode outside the subset.
	if err := Decode(new(Inst), []byte{0xD9, 0xC0}, 0); err == nil {
		t.Fatal("x87 opcode must be unsupported")
	}
}

// TestDecodeRandomNeverPanics hammers the decoder with random bytes; it
// must return errors, never panic, and never report a length beyond the
// input.
func TestDecodeRandomNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	buf := make([]byte, 16)
	var inst Inst
	for i := 0; i < 50000; i++ {
		n := 1 + rng.Intn(15)
		for j := 0; j < n; j++ {
			buf[j] = byte(rng.Intn(256))
		}
		err := Decode(&inst, buf[:n], uint64(i))
		if err != nil {
			continue
		}
		if int(inst.Len) > n || inst.Len == 0 {
			t.Fatalf("bad length %d for %x", inst.Len, buf[:n])
		}
	}
}

// FuzzDecode checks what an accepted decode promises: a length of 1 to
// 15 bytes within the input, the same record from exactly those bytes,
// and a truncation error from one byte fewer. Decode overwrites every
// field of its target, which starts out dirty here: a rejected decode
// leaves a record that is zero apart from Addr, and an accepted one the
// record a fresh target gets. The seeds are decodeTable's instructions.
func FuzzDecode(f *testing.F) {
	for _, c := range decodeTable {
		b, err := hex.DecodeString(strings.ReplaceAll(c.hex, " ", ""))
		if err != nil {
			f.Fatalf("bad hex %q: %v", c.hex, err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		const addr = 0x401000
		dirty := Operand{Kind: 0xFF, Reg: 0xFF, Index: 0xFF, Scale: 0xFF}
		in := Inst{Addr: 1, Imm: -1, Disp: -1, Len: 0xFF, Op: 0xFF, Cond: 0xFF, OpSize: 0xFF, Dst: dirty, Src: dirty}
		err := Decode(&in, b, addr)
		if err != nil {
			if in != (Inst{Addr: addr}) {
				t.Fatalf("% x: %v returned %+v", b, err, in)
			}
			return
		}
		if in.Len < 1 || in.Len > 15 || int(in.Len) > len(b) {
			t.Fatalf("% x: length %d", b, in.Len)
		}
		var again Inst
		if err := Decode(&again, b[:in.Len], addr); err != nil || again != in {
			t.Fatalf("% x: %+v, from its own %d bytes %+v (%v)", b, in, in.Len, again, err)
		}
		if err := Decode(&again, b[:in.Len-1], addr); !errors.Is(err, ErrTruncated) {
			t.Fatalf("% x: one byte short of %d: %v, want ErrTruncated", b, in.Len, err)
		}
	})
}

func TestTerminatorsAndCalls(t *testing.T) {
	ends := []Op{OpJmp, OpJmpInd, OpJcc, OpRet, OpUd2, OpHlt, OpInt3, OpCall, OpCallInd, OpSyscall}
	for _, op := range ends {
		if !(&Inst{Op: op}).EndsBlock() {
			t.Errorf("%v must end a block", op)
		}
	}
	if (&Inst{Op: OpMov}).EndsBlock() {
		t.Error("mov must not end a block")
	}
	if !(&Inst{Op: OpCall}).IsCall() || !(&Inst{Op: OpCallInd}).IsCall() {
		t.Error("call ops must report IsCall")
	}
	if (&Inst{Op: OpSyscall}).IsCall() {
		t.Error("syscall is not a call")
	}
}

func TestRegisterProperties(t *testing.T) {
	callerSaved := map[Reg]bool{RAX: true, RCX: true, RDX: true, RSI: true, RDI: true,
		R8: true, R9: true, R10: true, R11: true}
	for r := Reg(0); r < NumGPR; r++ {
		if got := CallerSaved.Has(r); got != callerSaved[r] {
			t.Errorf("%v caller-saved = %v", r, got)
		}
		if !r.Valid() || r.High() || r.Full() != r {
			t.Errorf("%v must be a valid full register", r)
		}
	}
	if RIP.Valid() || RegNone.Valid() || CallerSaved.Has(RIP) || CallerSaved.Has(RegNone) {
		t.Error("pseudo registers must be invalid and in no set")
	}
	for r, full := range map[Reg]Reg{AH: RAX, CH: RCX, DH: RDX, BH: RBX} {
		if r.Valid() || !r.High() || r.Full() != full || RegSetOf(r) != RegSetOf(full) {
			t.Errorf("%v: valid %v high %v full %v, want a high byte of %v", r, r.Valid(), r.High(), r.Full(), full)
		}
	}
}

func TestStringFormatting(t *testing.T) {
	var inst Inst
	if err := Decode(&inst, []byte{0x48, 0x8B, 0x44, 0x24, 0x08}, 0x400000); err != nil {
		t.Fatal(err)
	}
	s := inst.String()
	if s == "" {
		t.Fatal("empty String()")
	}
	m := Mem{Base: RAX, Index: RCX, Scale: 4, Disp: -8}
	if m.String() == "" {
		t.Fatal("empty Mem string")
	}
	if (Mem{Base: RegNone, Index: RegNone, Disp: 0}).String() != "[0x0]" {
		t.Fatalf("abs mem: %s", (Mem{Base: RegNone, Index: RegNone}).String())
	}
}
