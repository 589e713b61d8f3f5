//go:build linux && amd64

package filter

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"unsafe"

	"bside/internal/linux"
)

// seccompChildEnv, set in a child's environment, makes
// TestKernelEnforcesCompiledPolicy install the filter in its own
// process instead of spawning one: the filter cannot be removed again.
const seccompChildEnv = "BSIDE_TEST_SECCOMP_CHILD"

const (
	sysGetpid            = 39
	sysMkdirat           = 258
	sysSeccomp           = 317
	prSetNoNewPrivs      = 38
	seccompSetModeFilter = 1
	seccompFilterTsync   = 1
)

// sockFilter and sockFprog are the kernel's struct sock_filter and
// struct sock_fprog.
type sockFilter struct {
	Code uint16
	Jt   uint8
	Jf   uint8
	K    uint32
}

type sockFprog struct {
	Len    uint16
	Filter *sockFilter
}

// TestKernelEnforcesCompiledPolicy runs a compiled policy in the
// kernel rather than in Exec's interpreter. A re-executed child
// installs Compile(every syscall but mkdirat, ActionErrno) on all its
// threads, then requires mkdirat to fail with EPERM, getpid to still
// work, and getpid under the x32 bit to fail with EPERM. It skips where
// the kernel or a sandbox refuses the install.
func TestKernelEnforcesCompiledPolicy(t *testing.T) {
	if os.Getenv(seccompChildEnv) == "1" {
		enforceInChild(t)
		return
	}
	args := []string{"-test.run=^TestKernelEnforcesCompiledPolicy$", "-test.v"}
	if testing.CoverMode() != "" {
		// Without a directory to write its counters to, the child's
		// coverage teardown makes one, and the filter denies mkdirat.
		args = append(args, "-test.gocoverdir="+t.TempDir())
	}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), seccompChildEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	if strings.Contains(string(out), "--- SKIP") {
		t.Skipf("child skipped:\n%s", out)
	}
	if !strings.Contains(string(out), "--- PASS") {
		t.Fatalf("child ran no checks:\n%s", out)
	}
}

func enforceInChild(t *testing.T) {
	allowed := make([]uint64, 0, linux.SyscallSetBits)
	for nr := uint64(0); nr < linux.SyscallSetBits; nr++ {
		if nr != sysMkdirat {
			allowed = append(allowed, nr)
		}
	}
	p, err := Compile(allowed, ActionErrno)
	if err != nil {
		t.Fatal(err)
	}
	// filter.Insn and sock_filter share one field layout.
	recs := make([]sockFilter, len(p.Insns))
	for i, in := range p.Insns {
		recs[i] = sockFilter{Code: in.Op, Jt: in.Jt, Jf: in.Jf, K: in.K}
	}
	prog := sockFprog{Len: uint16(len(recs)), Filter: &recs[0]}
	pid := os.Getpid()
	dir := filepath.Join(os.TempDir(), fmt.Sprintf("bside-seccomp-%d", pid))

	// no_new_privs is per thread: set it on the thread that installs,
	// and TSYNC carries both to every other thread of the process.
	runtime.LockOSThread()
	if _, _, errno := syscall.RawSyscall(syscall.SYS_PRCTL, prSetNoNewPrivs, 1, 0); errno != 0 {
		t.Skipf("prctl(PR_SET_NO_NEW_PRIVS): %v", errno)
	}
	r, _, errno := syscall.RawSyscall(sysSeccomp, seccompSetModeFilter, seccompFilterTsync, uintptr(unsafe.Pointer(&prog)))
	runtime.KeepAlive(recs)
	if errno != 0 || r != 0 {
		t.Skipf("seccomp(SET_MODE_FILTER, TSYNC) = %d: %v", r, errno)
	}
	t.Logf("installed a %d-instruction filter", len(recs))

	if err := os.Mkdir(dir, 0o755); !errors.Is(err, syscall.EPERM) {
		_ = os.Remove(dir)
		t.Errorf("mkdirat under the filter: %v, want EPERM", err)
	}
	if r, _, errno := syscall.RawSyscall(sysGetpid, 0, 0, 0); errno != 0 || int(r) != pid {
		t.Errorf("getpid under the filter = %d (%v), want %d", r, errno, pid)
	}
	if _, _, errno := syscall.RawSyscall(sysGetpid|x32Bit, 0, 0, 0); errno != syscall.EPERM {
		t.Errorf("x32 getpid under the filter: errno %v, want EPERM", errno)
	}
}
