package x86

import (
	"bufio"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// objdumpInsn is one instruction of an objdump listing.
type objdumpInsn struct {
	addr  uint64
	bytes []byte
}

// objdumpListing runs objdump -d -w over path and returns every
// instruction it lists, in order, leaving out the ones it calls (bad).
func objdumpListing(t *testing.T, path string) []objdumpInsn {
	t.Helper()
	cmd := exec.Command("objdump", "-d", "-w", path)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var insns []objdumpInsn
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		// "  401000:\t48 89 e5 \tmov %rsp,%rbp"
		f := strings.SplitN(sc.Text(), "\t", 3)
		if len(f) < 3 || !strings.HasSuffix(f[0], ":") || strings.HasPrefix(f[2], "(bad)") {
			continue
		}
		addr, err := strconv.ParseUint(strings.TrimSpace(strings.TrimSuffix(f[0], ":")), 16, 64)
		if err != nil {
			continue
		}
		b, err := hex.DecodeString(strings.ReplaceAll(strings.TrimSpace(f[1]), " ", ""))
		if err != nil || len(b) == 0 {
			continue
		}
		insns = append(insns, objdumpInsn{addr, b})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("objdump %s: %v", path, err)
	}
	return insns
}

// TestDecodeAgreesWithObjdump decodes real compiler and linker output
// at objdump's instruction boundaries: wherever Decode accepts an
// instruction, its length must be objdump's. Each instruction is
// decoded followed by the bytes of the next ones, so a decoder that
// reads too far shows a wrong length instead of a truncation.
// Rejections are counted, not failed: the decoder covers a subset.
func TestDecodeAgreesWithObjdump(t *testing.T) {
	if _, err := exec.LookPath("objdump"); err != nil {
		t.Skip("objdump not available")
	}
	var gofmt string
	if out, err := exec.Command("go", "env", "GOROOT").Output(); err == nil {
		gofmt = filepath.Join(strings.TrimSpace(string(out)), "bin", "gofmt")
	}
	ran := false
	for _, path := range []string{gofmt, "/usr/bin/ls", "/usr/lib/x86_64-linux-gnu/libc.so.6"} {
		if _, err := os.Stat(path); path == "" || err != nil {
			continue
		}
		ran = true
		insns := objdumpListing(t, path)
		accepted, rejected, disagree := 0, 0, 0
		var d Inst
		for i, in := range insns {
			buf := in.bytes
			for j, end := i+1, in.addr+uint64(len(in.bytes)); j < len(insns) && j <= i+3 && insns[j].addr == end; j++ {
				buf = append(buf[:len(buf):len(buf)], insns[j].bytes...)
				end += uint64(len(insns[j].bytes))
			}
			err := Decode(&d, buf, in.addr)
			switch {
			case err != nil:
				rejected++
			case int(d.Len) != len(in.bytes):
				if disagree++; disagree <= 10 {
					t.Errorf("%s %#x: % x decodes as %d bytes (%v), objdump says %d",
						filepath.Base(path), in.addr, buf, d.Len, d, len(in.bytes))
				}
			default:
				accepted++
			}
		}
		if disagree > 0 {
			t.Errorf("%s: %d length disagreements", path, disagree)
		}
		t.Logf("%s: %d accepted, %d rejected of %d listed", path, accepted, rejected, len(insns))
	}
	if !ran {
		t.Skip("none of the binaries is present")
	}
}
