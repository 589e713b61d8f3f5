package bside_test

import (
	"fmt"
	"log"

	"bside"
	"bside/internal/asm"
	"bside/internal/elff"
	"bside/internal/x86"
)

// Assemble a tiny program in memory, wrap it in an ELF image, and
// identify its system calls.
func ExampleAnalyzer_AnalyzeBytes() {
	// write(2) through a stack-carried number (the pattern
	// use-define-chain tools cannot track), then exit(2).
	b := asm.New()
	b.Func("_start")
	b.SubRegImm(x86.RSP, 16)
	b.MovMemImm32(x86.Mem{Base: x86.RSP, Index: x86.RegNone, Scale: 1}, 1) // write
	b.MovRegMem(x86.RAX, x86.Mem{Base: x86.RSP, Index: x86.RegNone, Scale: 1})
	b.Syscall()
	b.AddRegImm(x86.RSP, 16)
	b.MovRegImm32(x86.RAX, 60) // exit
	b.Syscall()
	b.Label("__code_end")

	img, syms, err := b.Finalize(0x400000)
	if err != nil {
		log.Fatal(err)
	}
	data, err := elff.Write(elff.Spec{
		Kind:     elff.KindStatic,
		Base:     0x400000,
		Entry:    syms["_start"],
		Blob:     img,
		CodeSize: syms["__code_end"] - 0x400000,
	})
	if err != nil {
		log.Fatal(err)
	}

	res, err := bside.NewAnalyzer(bside.Options{}).AnalyzeBytes(data)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Syscalls, res.Names(), res.FailOpen)
	// Output: [1 60] [write exit] false
}
