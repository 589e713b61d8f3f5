package x86

import (
	"encoding/hex"
	"errors"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// TestInstIsCompact: the CFG keeps instructions in flat arenas and
// copies each once into its graph. A pointer or slice field would make
// the garbage collector scan those arenas, and every added byte is paid
// on each copy, so Inst stays 32 bytes of plain data.
func TestInstIsCompact(t *testing.T) {
	if n := unsafe.Sizeof(Inst{}); n != 32 {
		t.Errorf("Inst is %d bytes, want 32", n)
	}
	if n := unsafe.Sizeof(Operand{}); n != 4 {
		t.Errorf("Operand is %d bytes, want 4", n)
	}
	var walk func(typ reflect.Type)
	walk = func(typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		case reflect.Array:
			walk(typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(typ.Field(i).Type)
			}
		default:
			t.Errorf("Inst holds a %v, which may carry a pointer", typ)
		}
	}
	walk(reflect.TypeOf(Inst{}))
}

// TestInstQueriesTakePointers: Inst has more fields than the compiler
// keeps in registers, so a value receiver copies the record through
// memory on every query, and a copy of a record Decode has just written
// stalls on store forwarding. Every query takes *Inst; only String, a
// cold path that fmt calls on values, keeps its value receiver.
func TestInstQueriesTakePointers(t *testing.T) {
	typ := reflect.TypeOf(Inst{})
	var names []string
	for i := 0; i < typ.NumMethod(); i++ {
		names = append(names, typ.Method(i).Name)
	}
	if len(names) != 1 || names[0] != "String" {
		t.Errorf("Inst's value methods are %v, want [String]", names)
	}
}

// decodeHex decodes the instruction spelled by h (spaces allowed),
// followed by nop padding so a decoder that reads too far shows up as a
// wrong length rather than a truncation error.
func decodeHex(t *testing.T, h string) (Inst, error) {
	t.Helper()
	b, err := hex.DecodeString(strings.ReplaceAll(h, " ", ""))
	if err != nil {
		t.Fatalf("bad hex %q: %v", h, err)
	}
	var inst Inst
	err = Decode(&inst, append(b, 0x90, 0x90, 0x90, 0x90), 0x401000)
	return inst, err
}

// decodeTable pins the length, rendering and operand size of one
// instruction per opcode row and per ModRM shape: a register, [base],
// disp8, disp32, SIB with index and scale, disp32 without a base, and
// RIP-relative. A register renders at the operand size, or for a
// movzx, movsx or movsxd source at the source's width; memory bases and
// indexes read their 64-bit names.
var decodeTable = []struct {
	hex  string
	len  uint8
	want string
	size uint8
}{
	// ALU r/m, r and r, r/m families, over every ModRM shape.
	{"01 d8", 2, "add eax, ebx", 4},
	{"48 01 d8", 3, "add rax, rbx", 8},
	{"00 c8", 2, "add al, cl", 1},
	{"31 c0", 2, "xor eax, eax", 4},
	{"48 29 d8", 3, "sub rax, rbx", 8},
	{"48 21 d8", 3, "and rax, rbx", 8},
	{"48 09 d8", 3, "or rax, rbx", 8},
	{"48 39 d8", 3, "cmp rax, rbx", 8},
	{"8a c1", 2, "mov al, cl", 1},
	{"4d 89 c7", 3, "mov r15, r8", 8},
	{"89 07", 2, "mov [rdi], eax", 4},
	{"48 8b 44 24 08", 5, "mov rax, [rsp+0x8]", 8},
	{"8b 45 f8", 3, "mov eax, [rbp-0x8]", 4},
	{"8b 85 00 f0 ff ff", 6, "mov eax, [rbp-0x1000]", 4},
	{"48 89 84 24 00 01 00 00", 8, "mov [rsp+0x100], rax", 8},
	{"48 8b 14 ca", 4, "mov rdx, [rdx+rcx*8]", 8},
	{"4a 8b 04 e3", 4, "mov rax, [rbx+r12*8]", 8},
	{"48 8b 04 cd 00 10 00 00", 8, "mov rax, [rcx*8+0x1000]", 8},
	{"8b 04 25 00 10 00 00", 7, "mov eax, [0x1000]", 4},
	{"48 8b 05 10 00 00 00", 7, "mov rax, [rip+0x10]", 8},
	{"41 8b 04 24", 4, "mov eax, [r12]", 4},
	{"41 8b 45 00", 4, "mov eax, [r13]", 4},
	// push, pop, movsxd.
	{"55", 1, "push rbp", 8},
	{"41 57", 2, "push r15", 8},
	{"41 5f", 2, "pop r15", 8},
	{"48 63 c7", 3, "movsxd rax, edi", 8},
	{"48 63 47 08", 4, "movsxd rax, [rdi+0x8]", 8},
	{"68 78 56 34 12", 5, "push 0x12345678", 8},
	{"6a ff", 2, "push -0x1", 8},
	// Branches carry their absolute target in Imm.
	{"74 05", 2, "je 0x401007", 4},
	{"0f 84 00 01 00 00", 6, "je 0x401106", 4},
	{"e8 10 00 00 00", 5, "call 0x401015", 4},
	{"e9 fb ff ff ff", 5, "jmp 0x401000", 4},
	{"eb fe", 2, "jmp 0x401000", 4},
	// Group 1, including a displacement and an immediate at once.
	{"80 3d 10 00 00 00 05", 7, "cmp [rip+0x10], 0x5", 1},
	{"81 c1 00 01 00 00", 6, "add ecx, 0x100", 4},
	{"48 81 c1 ff ff ff ff", 7, "add rcx, -0x1", 8},
	{"48 83 ec 10", 4, "sub rsp, 0x10", 8},
	{"48 83 e4 f0", 4, "and rsp, -0x10", 8},
	{"48 83 c8 08", 4, "or rax, 0x8", 8},
	{"81 7c 24 10 00 00 ff ff", 8, "cmp [rsp+0x10], -0x10000", 4},
	// test, lea, one-byte operations.
	{"85 c0", 2, "test eax, eax", 4},
	{"84 c0", 2, "test al, al", 1},
	{"48 8d 35 10 00 00 00", 7, "lea rsi, [rip+0x10]", 8},
	{"48 8d 44 24 08", 5, "lea rax, [rsp+0x8]", 8},
	{"8d 0c 11", 3, "lea ecx, [rcx+rdx*1]", 4},
	{"90", 1, "nop", 4},
	{"48 98", 2, "cdqe", 8},
	{"c3", 1, "ret", 4},
	{"c9", 1, "leave", 4},
	{"cc", 1, "int3", 4},
	{"f4", 1, "hlt", 4},
	// mov r, imm: imm32 zero-extends, movabs needs all 64 bits.
	{"b8 3c 00 00 00", 5, "mov eax, 0x3c", 4},
	{"41 bb ef be ad de", 6, "mov r11d, 0xdeadbeef", 4},
	{"48 b8 88 77 66 55 44 33 22 11", 10, "mov rax, 0x1122334455667788", 8},
	{"49 bb ff ff ff ff ff ff ff ff", 10, "mov r11, -0x1", 8},
	// Group 2 shifts.
	{"48 c1 e0 03", 4, "shl rax, 0x3", 8},
	{"48 c1 e8 01", 4, "shr rax, 0x1", 8},
	// mov r/m, imm, including a displacement and an immediate.
	{"c6 00 05", 3, "mov [rax], 0x5", 1},
	{"c7 44 24 18 2a 00 00 00", 8, "mov [rsp+0x18], 0x2a", 4},
	{"48 c7 c0 ff ff ff ff", 7, "mov rax, -0x1", 8},
	{"c7 05 08 00 00 00 01 00 00 00", 10, "mov [rip+0x8], 0x1", 4},
	// Group 5.
	{"ff c0", 2, "inc eax", 4},
	{"48 ff c8", 3, "dec rax", 8},
	{"ff d0", 2, "call rax", 8},
	{"41 ff d3", 3, "call r11", 8},
	{"ff 15 10 00 00 00", 6, "call [rip+0x10]", 8},
	{"ff e0", 2, "jmp rax", 8},
	{"ff 24 c5 00 10 00 00", 7, "jmp [rax*8+0x1000]", 8},
	{"ff 35 10 00 00 00", 6, "push [rip+0x10]", 8},
	// Two-byte opcodes.
	{"0f 05", 2, "syscall", 4},
	{"0f 0b", 2, "ud2", 4},
	{"f3 0f 1e fa", 4, "endbr64", 4},
	{"0f 1f 40 00", 4, "nop", 4},
	{"66 0f 1f 44 00 00", 6, "nop", 2},
	{"0f b6 c0", 3, "movzx eax, al", 4},
	{"0f b7 c0", 3, "movzx eax, ax", 4},
	{"48 0f be c0", 4, "movsx rax, al", 8},
	{"0f bf 4c 24 08", 5, "movsx ecx, [rsp+0x8]", 4},
	// Without REX, byte-register codes 4-7 are AH, CH, DH and BH;
	// with any REX they are the low bytes of RSP, RBP, RSI and RDI.
	{"88 cc", 2, "mov ah, cl", 1},
	{"40 88 cc", 3, "mov spl, cl", 1},
	{"8a e1", 2, "mov ah, cl", 1},
	{"8a 24 24", 3, "mov ah, [rsp]", 1},
	{"30 e4", 2, "xor ah, ah", 1},
	{"c6 c7 01", 3, "mov bh, 0x1", 1},
	{"80 fd 05", 3, "cmp ch, 0x5", 1},
	{"84 f6", 2, "test dh, dh", 1},
	{"85 f6", 2, "test esi, esi", 4},
	{"0f b6 c5", 3, "movzx eax, ch", 4},
	{"40 0f b6 c5", 4, "movzx eax, bpl", 4},
	{"0f b7 c5", 3, "movzx eax, bp", 4},
	{"0f b6 c1", 3, "movzx eax, cl", 4},
	{"41 b8 01 00 00 00", 6, "mov r8d, 0x1", 4},
	// A legacy prefix after REX voids it; REX after 66 widens.
	{"48 66 b8 34 12", 5, "mov ax, 0x1234", 2},
	{"66 48 b8 34 12 00 00 00 00 00 00", 11, "mov rax, 0x1234", 8},
}

func TestDecodeTable(t *testing.T) {
	for _, c := range decodeTable {
		in, err := decodeHex(t, c.hex)
		if err != nil {
			t.Errorf("%s: %v", c.hex, err)
			continue
		}
		want := "0x00401000: " + c.want
		if in.Len != c.len || in.String() != want || in.OpSize != c.size {
			t.Errorf("%s: len %d %q size %d, want len %d %q size %d",
				c.hex, in.Len, in.String(), in.OpSize, c.len, want, c.size)
		}
	}
	// movzx and movsx keep their source width, from a register and
	// from memory; the extension then runs from that width.
	for _, c := range []struct {
		hex       string
		op        Op
		size, src uint8
	}{
		{"0f b6 c1", OpMovzxB, 4, 1},       // movzx eax, cl
		{"0f b6 07", OpMovzxB, 4, 1},       // movzx eax, byte [rdi]
		{"66 0f b6 c1", OpMovzxB, 2, 1},    // movzx ax, cl
		{"0f b7 c1", OpMovzxW, 4, 2},       // movzx eax, cx
		{"0f b7 47 02", OpMovzxW, 4, 2},    // movzx eax, word [rdi+2]
		{"48 0f be c1", OpMovsxB, 8, 1},    // movsx rax, cl
		{"0f be 4c 24 08", OpMovsxB, 4, 1}, // movsx ecx, byte [rsp+8]
		{"0f bf c1", OpMovsxW, 4, 2},       // movsx eax, cx
		{"48 0f bf 07", OpMovsxW, 8, 2},    // movsx rax, word [rdi]
		{"48 63 c7", OpMovsxd, 8, 4},       // movsxd rax, edi
	} {
		in, err := decodeHex(t, c.hex)
		if err != nil || in.Op != c.op || in.OpSize != c.size || in.SrcSize() != c.src {
			t.Errorf("%s: %v op %v size %d source %d, want %v size %d source %d",
				c.hex, err, in.Op, in.OpSize, in.SrcSize(), c.op, c.size, c.src)
		}
	}
}

// TestDecodeOperandFields checks the fields the renderings above stand
// for: a displacement and an immediate held at once, the full 64-bit
// immediate, and RIP-relative effective addresses of call, lea and
// store forms.
func TestDecodeOperandFields(t *testing.T) {
	in, _ := decodeHex(t, "c7 44 24 18 2a 00 00 00") // mov dword [rsp+0x18], 0x2a
	if m := in.Mem(in.Dst); in.Dst.Kind != KindMem || m.Base != RSP || m.Index != RegNone ||
		m.Disp != 0x18 || in.Src.Kind != KindImm || in.Imm != 0x2a {
		t.Errorf("mov [rsp+0x18], imm32: %+v", in)
	}
	in, _ = decodeHex(t, "80 3d 10 00 00 00 05") // cmp byte [rip+0x10], 5
	if ea, ok := in.MemEA(in.Dst); !ok || ea != 0x401017 || in.Imm != 5 {
		t.Errorf("cmp [rip+d], imm8: ea %#x ok %v imm %d", ea, ok, in.Imm)
	}
	in, _ = decodeHex(t, "48 b8 88 77 66 55 44 33 22 11") // movabs rax, imm64
	if uint64(in.Imm) != 0x1122334455667788 {
		t.Errorf("movabs imm %#x", in.Imm)
	}
	in, _ = decodeHex(t, "48 8b 14 ca") // mov rdx, [rdx+rcx*8]
	if m := in.Mem(in.Src); m != (Mem{Base: RDX, Index: RCX, Scale: 8}) {
		t.Errorf("SIB operand %+v", m)
	}
	for _, c := range []struct {
		hex string
		ea  uint64
		dst bool
	}{
		{"ff 15 10 00 00 00", 0x401016, true},     // call [rip+0x10]
		{"48 8d 35 10 00 00 00", 0x401017, false}, // lea rsi, [rip+0x10]
		{"48 8b 05 f0 ff ff ff", 0x400ff7, false}, // mov rax, [rip-0x10]
	} {
		in, _ := decodeHex(t, c.hex)
		op, other := in.Src, in.Dst
		if c.dst {
			op, other = in.Dst, in.Src
		}
		if ea, ok := in.MemEA(op); !ok || ea != c.ea {
			t.Errorf("%s: EA %#x ok %v, want %#x", c.hex, ea, ok, c.ea)
		}
		if _, ok := in.MemEA(other); ok {
			t.Errorf("%s: the non-memory operand has an EA", c.hex)
		}
	}
}

// TestDecodeOperandSizePrefix: under a 0x66 prefix an instruction whose
// immediate follows the operand size reads an imm16. The lengths are
// objdump's. The 16-bit push and pop forms are refused rather than
// modeled as 8-byte stack moves; REX.W overrides the prefix.
func TestDecodeOperandSizePrefix(t *testing.T) {
	cases := []struct {
		hex  string
		len  uint8
		want string
		imm  int64
	}{
		{"66 b8 34 12", 4, "mov ax, 0x1234", 0x1234},
		{"66 b8 ff ff", 4, "mov ax, 0xffff", 0xffff},
		{"66 81 c1 34 12", 5, "add cx, 0x1234", 0x1234},
		{"66 81 c1 ff ff", 5, "add cx, -0x1", -1},          // add cx, 0xffff
		{"66 c7 00 34 12", 5, "mov [rax], 0x1234", 0x1234}, // mov word [rax], 0x1234
		{"66 c7 44 24 08 34 12", 7, "mov [rsp+0x8], 0x1234", 0x1234},
		{"66 83 c1 01", 4, "add cx, 0x1", 1}, // imm8 stays imm8
	}
	for _, c := range cases {
		in, err := decodeHex(t, c.hex)
		if err != nil {
			t.Errorf("%s: %v", c.hex, err)
			continue
		}
		want := "0x00401000: " + c.want
		if in.Len != c.len || in.String() != want || in.OpSize != 2 || in.Imm != c.imm {
			t.Errorf("%s: len %d %q size %d imm %#x, want len %d %q size 2 imm %#x",
				c.hex, in.Len, in.String(), in.OpSize, in.Imm, c.len, want, c.imm)
		}
	}
	in, err := decodeHex(t, "66 48 b8 88 77 66 55 44 33 22 11")
	if err != nil || in.Len != 11 || in.OpSize != 8 || uint64(in.Imm) != 0x1122334455667788 {
		t.Errorf("REX.W under 0x66: %v len %d size %d imm %#x", err, in.Len, in.OpSize, in.Imm)
	}
	for _, h := range []string{
		"66 50",       // push ax
		"66 41 57",    // push r15w
		"66 58",       // pop ax
		"66 68 34 12", // push imm16 (objdump length 4)
		"66 6a 01",    // push imm8 as a word
		"66 ff 30",    // push word [rax]
	} {
		if _, err := decodeHex(t, h); !errors.Is(err, ErrUnsupported) {
			t.Errorf("%s: err %v, want ErrUnsupported", h, err)
		}
	}
}
