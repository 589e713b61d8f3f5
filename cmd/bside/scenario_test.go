package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"bside"
	"bside/internal/corpus"
	"bside/internal/elff"
	"bside/internal/linux"
	"bside/internal/serve"
	"bside/internal/sweep"
)

// runMainEnv, set in a child's environment, makes TestMain run the
// shipped main() instead of the tests: the scenario table re-executes
// this test binary as bside.
const runMainEnv = "BSIDE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// scenarioInputs is what every row shares, built once in-process.
type scenarioInputs struct {
	apps  []string // the application corpus, in generator order
	libs  string   // its shared-library directory
	tree  string   // sweep root: the apps, nested static tools, noise
	tool  string   // a self-contained static binary in the tree
	noise string   // a non-ELF file in the tree
}

// TestMainScenarios runs the shipped main() in child processes, with
// real flag parsing, exit codes and signal handling. Each row keeps only
// what no in-process test checks.
func TestMainScenarios(t *testing.T) {
	in := buildScenarioInputs(t)
	for _, row := range []struct {
		name string
		run  func(*testing.T, *scenarioInputs)
	}{
		{"single", singleScenario},
		{"record", recordScenario},
		{"serve", serveScenario},
		{"sweep", sweepScenario},
		{"pack", packScenario},
		{"exit-codes", exitCodeScenario},
	} {
		t.Run(row.name, func(t *testing.T) { row.run(t, in) })
	}
}

// buildScenarioInputs writes the application corpus and its libraries
// (corpus.GenerateApps, the call `bsidegen -apps-only` makes) and shapes
// a sweep tree around the apps.
func buildScenarioInputs(t *testing.T) *scenarioInputs {
	set, err := corpus.GenerateApps()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	in := &scenarioInputs{libs: filepath.Join(dir, "libs"), tree: filepath.Join(dir, "tree")}
	bins := make(map[string]*elff.Binary)
	for _, b := range set.Apps {
		path := filepath.Join(in.tree, "usr", "bin", b.Profile.Name)
		bins[path] = b.Bin
		in.apps = append(in.apps, path)
	}
	for name, lib := range set.Libs {
		bins[filepath.Join(in.libs, name)] = lib
	}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("tool%d", i)
		in.tool = filepath.Join(in.tree, "opt", fmt.Sprintf("pkg%d", i%2), "bin", name)
		if bins[in.tool], err = corpus.BuildProgram(corpus.Profile{
			Name: name, Kind: elff.KindStatic, HotDirect: 6, HotWrapper: 2, HotStack: 1,
			ColdDirect: 3, Filler: 12, Seed: int64(7000 + i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	in.noise = filepath.Join(in.tree, "etc", "os-release")
	files := map[string][]byte{
		in.noise:                       []byte("ID=scenario\n"),
		filepath.Join(in.tree, "tiny"): {0x7f, 'E', 'L'},
	}
	for path, b := range bins {
		if files[path], err = elff.Write(b.Spec()); err != nil {
			t.Fatal(err)
		}
	}
	for path, data := range files {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	return in
}

// mainCmd is a child process that runs main() with args.
func mainCmd(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	return cmd
}

// runMain runs main() with args to completion; it must exit with want.
func runMain(t *testing.T, want int, args ...string) (stdout, stderr []byte) {
	t.Helper()
	var out, errOut bytes.Buffer
	cmd := mainCmd(args...)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	var exit *exec.ExitError
	if err := cmd.Run(); err != nil && !errors.As(err, &exit) {
		t.Fatalf("bside %v: %v", args, err)
	}
	if code := cmd.ProcessState.ExitCode(); code != want {
		t.Fatalf("bside %v exited %d, want %d:\n%s", args, code, want, errOut.Bytes())
	}
	return out.Bytes(), errOut.Bytes()
}

// singleScenario runs the default one-binary form in each of its
// output modes on one app and holds them to that app's batch line.
func singleScenario(t *testing.T, in *scenarioInputs) {
	app := in.apps[0]
	var want batchLine
	out, _ := runMain(t, 0, "batch", "-libs", in.libs, "-jobs", "1", app)
	if err := json.Unmarshal(out, &want); err != nil || len(want.Syscalls) == 0 {
		t.Fatalf("batch line %s: %v", out, err)
	}
	single := func(args ...string) (stdout, stderr []byte) {
		return runMain(t, 0, append(append([]string{"-libs", in.libs}, args...), app)...)
	}

	if out, _ := single(); !bytes.HasPrefix(out, fmt.Appendf(nil, "%d system calls identified", len(want.Syscalls))) {
		t.Errorf("plain output does not open with the batch line's count %d:\n%s", len(want.Syscalls), out)
	}
	var got batchLine
	if out, _ := single("-json"); json.Unmarshal(out, &got) != nil ||
		!slices.Equal(got.Syscalls, want.Syscalls) || got.FailOpen != want.FailOpen {
		t.Errorf("-json: %s, want the batch line's syscalls %v", out, want.Syscalls)
	}
	var policy struct {
		Allowed  []uint64 `json:"allowed"`
		FailOpen bool     `json:"fail_open"`
	}
	wantAllowed := want.Syscalls
	if want.FailOpen {
		wantAllowed = linux.All()
	}
	if out, _ := single("-policy"); json.Unmarshal(out, &policy) != nil || !slices.Equal(policy.Allowed, wantAllowed) {
		t.Errorf("-policy: %s, want allowed %v", out, wantAllowed)
	}
	if !want.FailOpen {
		out, _ := single("-phases")
		var phases struct {
			Phases []json.RawMessage `json:"phases"`
		}
		jsonOut, _ := single("-phases", "-json")
		if err := json.Unmarshal(jsonOut, &phases); err != nil ||
			!bytes.HasPrefix(out, fmt.Appendf(nil, "%d phases (start ", len(phases.Phases))) {
			t.Errorf("-phases opens %q; -phases -json: %v, %d phases", bytes.SplitN(out, []byte("\n"), 2)[0], err, len(phases.Phases))
		}
	}
	if out, _ := single("-disasm"); !bytes.Contains(out, []byte("syscall")) {
		t.Errorf("-disasm lists no syscall:\n%.500s", out)
	}
	if _, stderr := single("-timings"); !bytes.Contains(stderr, []byte("timings: decode=")) {
		t.Errorf("-timings: stderr %q", stderr)
	}
	runMain(t, 2)           // usage mistake: no binary
	runMain(t, 1, in.noise) // run failure: not an ELF
}

// decodeKeys decodes one JSON object by key, so a missing key reads as
// missing rather than as a zero value.
func decodeKeys(t *testing.T, data []byte) map[string]json.RawMessage {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("%v: %s", err, data)
	}
	return m
}

// linesByPath decodes NDJSON output, keyed by each line's path.
func linesByPath(t *testing.T, out []byte) map[string]map[string]json.RawMessage {
	t.Helper()
	lines := make(map[string]map[string]json.RawMessage)
	for _, line := range bytes.Split(bytes.TrimSpace(out), []byte("\n")) {
		m := decodeKeys(t, line)
		var path string
		if err := json.Unmarshal(m["path"], &path); err != nil {
			t.Fatalf("line without a path: %s", line)
		}
		lines[path] = m
	}
	return lines
}

// recordScenario holds every entry path to one rendering. For a
// dynamic app and the static, import-free tool, the -json output, the
// batch line, the sweep line, the serve /batch result and the /analyze
// body each carry the five record keys, byte-equal to serve.Render of
// a direct analysis.
func recordScenario(t *testing.T, in *scenarioInputs) {
	bins := []string{in.apps[0], in.tool}
	want := make(map[string]map[string]json.RawMessage)
	direct := bside.NewAnalyzer(bside.Options{LibraryDir: in.libs})
	for _, path := range bins {
		res, err := direct.AnalyzeFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want[path] = decodeKeys(t, serve.Render(res))
	}
	check := func(from, path string, got map[string]json.RawMessage) {
		t.Helper()
		for _, key := range []string{"syscalls", "names", "fail_open", "wrappers", "imports"} {
			var compact bytes.Buffer
			raw, ok := got[key]
			if !ok || json.Compact(&compact, raw) != nil || !bytes.Equal(compact.Bytes(), want[path][key]) {
				t.Errorf("%s %s: %q is %s (present %v), want %s", from, filepath.Base(path), key, raw, ok, want[path][key])
			}
		}
	}

	out, _ := runMain(t, 0, append([]string{"batch", "-libs", in.libs, "-jobs", "1"}, bins...)...)
	batch := linesByPath(t, out)
	out, _ = runMain(t, 0, "sweep", "-libs", in.libs, in.tree)
	swept := linesByPath(t, out)
	d := startDaemon(t, "-libs", in.libs)
	read := readOK(t)
	req, _ := json.Marshal(map[string][]string{"paths": bins})
	_, out = read(http.Post(d.base+"/batch", "application/json", bytes.NewReader(req)))
	served := linesByPath(t, out)
	for _, path := range bins {
		single, _ := runMain(t, 0, "-libs", in.libs, "-json", path)
		check("-json", path, decodeKeys(t, single))
		check("batch", path, batch[path])
		check("sweep", path, swept[path])
		check("serve /batch", path, decodeKeys(t, served[path]["result"]))
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, body := read(http.Post(d.base+"/analyze", "application/octet-stream", bytes.NewReader(img)))
		check("serve /analyze", path, decodeKeys(t, body))
	}
}

// daemon is a running `bside serve` child.
type daemon struct {
	cmd    *exec.Cmd
	base   string        // http://host:port
	exited chan struct{} // closed once the child exited and was reaped
	// log and waitErr belong to the stderr reader until exited closes.
	log     []string
	waitErr error
}

// startDaemon runs `bside serve` with args on a free port and waits
// for it to announce its address; the test's cleanup kills it.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	d := &daemon{
		cmd:    mainCmd(append([]string{"serve", "-addr", "127.0.0.1:0"}, args...)...),
		exited: make(chan struct{}),
	}
	pipe, err := d.cmd.StderrPipe()
	if err == nil {
		err = d.cmd.Start()
	}
	if err != nil {
		t.Fatal(err)
	}
	// The daemon listens on :0, so only its log knows the port.
	addr := make(chan string, 1)
	go func() {
		defer close(d.exited)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "bside serve: listening on "); ok {
				addr <- "http://" + a
			}
			d.log = append(d.log, sc.Text())
		}
		d.waitErr = d.cmd.Wait()
	}()
	t.Cleanup(func() {
		_ = d.cmd.Process.Kill() // fails harmlessly once the daemon exited
		<-d.exited
	})
	select {
	case d.base = <-addr:
	case <-d.exited:
		t.Fatalf("daemon exited before listening: %v\n%s", d.waitErr, strings.Join(d.log, "\n"))
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not announce its address within 10s")
	}
	return d
}

// readOK returns a reader of HTTP responses that must answer 200.
func readOK(t *testing.T) func(*http.Response, error) (http.Header, []byte) {
	return func(resp *http.Response, err error) (http.Header, []byte) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v: %s", resp.Request.URL, resp.StatusCode, err, data)
		}
		return resp.Header, data
	}
}

func serveScenario(t *testing.T, in *scenarioInputs) {
	img, err := os.ReadFile(in.tool)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(img)
	d := startDaemon(t, "-cache", t.TempDir())
	read := readOK(t)
	up, cold := read(http.Post(d.base+"/analyze", "application/octet-stream", bytes.NewReader(img)))
	if got := up.Get("X-Bside-Cached"); got != "false" {
		t.Fatalf("upload: X-Bside-Cached = %q, want false", got)
	}
	warm, warmBody := read(http.Post(d.base+"/analyze?hash="+hex.EncodeToString(sum[:]), "", nil))
	if got := warm.Get("X-Bside-Cached"); got != "true" || !bytes.Equal(warmBody, cold) {
		t.Fatalf("hash lookup: X-Bside-Cached = %q, body %s, want true and the upload's %s", got, warmBody, cold)
	}
	var m serve.Metrics
	if _, data := read(http.Get(d.base + "/metrics")); json.Unmarshal(data, &m) != nil ||
		m.Serve.Analyses != 1 || m.Serve.LookupHits != 1 || m.Cache.Stores == 0 || m.Cache.Hits == 0 {
		t.Fatalf("metrics: %s, want analyses 1, lookup_hits 1, cache stores and hits > 0", data)
	}

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit within 15s of SIGTERM")
	}
	draining := slices.Index(d.log, "bside serve: draining")
	if d.waitErr != nil || draining < 0 || slices.Index(d.log, "bside serve: drained") < draining {
		t.Fatalf("after SIGTERM: exit %v, want 0 with draining then drained logged:\n%s", d.waitErr, strings.Join(d.log, "\n"))
	}
}

func sweepScenario(t *testing.T, in *scenarioInputs) {
	cache := t.TempDir()
	// Exit 0 is the soundness gate: no failures and no scan
	// disagreements on the dynamic binaries.
	pass := func() (lines int, sum sweep.Summary) {
		sumFile := filepath.Join(t.TempDir(), "summary.json")
		out, _ := runMain(t, 0, "sweep", "-libs", in.libs, "-cache", cache, "-diff", "-summary", sumFile, in.tree)
		data, err := os.ReadFile(sumFile)
		if err == nil {
			err = json.Unmarshal(data, &sum)
		}
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Count(out, []byte("\n")), sum
	}
	lines, cold := pass()
	if int64(lines) != cold.Analyzed || cold.Analyzed < 10 || cold.Files <= cold.ELFs {
		t.Fatalf("cold sweep: %d NDJSON lines, summary %+v", lines, cold)
	}
	if _, warm := pass(); warm.WarmHitRatio <= 0 {
		t.Fatalf("warm sweep: summary %+v", warm)
	}
}

func packScenario(t *testing.T, in *scenarioInputs) {
	cache := t.TempDir()
	batch := func() (stdout, stderr []byte) {
		return runMain(t, 0, append([]string{"batch", "-libs", in.libs, "-cache", cache, "-jobs", "1"}, in.apps...)...)
	}
	if _, stderr := batch(); bytes.Contains(stderr, []byte("; pack ")) {
		t.Fatalf("cold batch reports a pack before any exists:\n%s", stderr)
	}
	loose, stderr := batch()
	if !bytes.Contains(stderr, []byte(" 0 analyzed (cold)")) {
		t.Fatalf("warm batch was not fully cache-served:\n%s", stderr)
	}
	runMain(t, 0, "cache", "pack", "-dir", cache)
	packed, stderr := batch()
	if !bytes.Equal(packed, loose) || !regexp.MustCompile(`; pack [1-9][0-9]* hits`).Match(stderr) {
		t.Fatalf("packed batch: stdout equal to the loose replay %v, summary:\n%s", bytes.Equal(packed, loose), stderr)
	}
}

func exitCodeScenario(t *testing.T, in *scenarioInputs) {
	runMain(t, 2, "batch")           // usage mistake: no binaries
	runMain(t, 1, "batch", in.noise) // run failure: not an ELF
}
