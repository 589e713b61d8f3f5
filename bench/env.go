package bench

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// Env is the environment block every report carries: what a number
// was measured on. Timer slack matters because open-loop latencies are
// measured from due times, and a late wake-up inflates them.
type Env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	WorkdirFS  string `json:"workdir_fs"`
	// LateMsP50 and LateMsP99 are how late a 1 ms timer sleep wakes,
	// sampled before the run (loadgen.late_ms).
	LateMsP50 float64 `json:"late_ms_p50"`
	LateMsP99 float64 `json:"late_ms_p99"`
}

func probeEnv(seed int64, workdir string) Env {
	e := Env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     "unknown",
		Seed:       seed,
		WorkdirFS:  fsType(workdir),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	var late []float64
	for i := 0; i < 50; i++ {
		t := time.Now()
		time.Sleep(time.Millisecond)
		late = append(late, ms(time.Since(t)-time.Millisecond))
	}
	e.LateMsP50, e.LateMsP99 = Percentile(late, 50), Percentile(late, 99)
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
