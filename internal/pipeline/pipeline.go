// Package pipeline structures B-Side's per-binary analysis as an
// explicit staged pipeline over typed artifacts:
//
//	decode/CFG → wrapper detection → per-site identification → [stitch] → [phases]
//
// The first three stages run here, per binary; foreign-call stitching
// and phase detection belong to the callers (internal/shared and the
// public bside package) but report their cost through the same Timings
// vocabulary, so one analysis carries a complete per-stage cost record
// (the paper's Table 3, observable per run).
//
// Stages communicate through immutable artifacts: the recovered
// cfg.Graph is read-only after StageDecode, and the ident.Pass reads it
// without mutation, which is what lets the two identification stages
// fan their independent units — functions for wrapper detection,
// identification targets for the backward search — across a bounded
// worker pool (Config.Ident.Workers) sharing one atomic
// symbolic-execution budget. Unit results merge in a fixed order, so a
// Result is byte-identical at any worker count.
package pipeline

import (
	"context"
	"runtime"
	"time"

	"bside/internal/cfg"
	"bside/internal/elff"
	"bside/internal/faults"
	"bside/internal/guard"
	"bside/internal/ident"
)

// Stage names one step of the per-binary analysis pipeline.
type Stage uint8

// Pipeline stages, in execution order.
const (
	// StageDecode is disassembly plus precise-CFG recovery (§4.3).
	StageDecode Stage = iota + 1
	// StageWrappers is syscall-wrapper detection over the functions
	// containing syscall sites (§4.4, phase G).
	StageWrappers
	// StageIdentify is the per-site backward search (§4.4, phase H).
	StageIdentify
	// StageStitch is foreign-call resolution against shared-library
	// interfaces (§4.5); recorded by internal/shared.
	StageStitch
	// StagePhases is execution-phase detection (§4.7); recorded by the
	// public package when requested.
	StagePhases
)

// String names the stage.
func (s Stage) String() string {
	switch s {
	case StageDecode:
		return "decode"
	case StageWrappers:
		return "wrappers"
	case StageIdentify:
		return "identify"
	case StageStitch:
		return "stitch"
	case StagePhases:
		return "phases"
	}
	return "?"
}

// Timings is the per-stage cost record of one analysis, indexed by
// Stage. A stage that never ran reads 0.
type Timings [StagePhases + 1]time.Duration

// Add records one stage's cost.
func (t *Timings) Add(s Stage, d time.Duration) { t[s] += d }

// Get returns the recorded cost of stage s (0 if the stage never ran).
func (t Timings) Get(s Stage) time.Duration { return t[s] }

// Total sums all recorded stages.
func (t Timings) Total() time.Duration {
	var sum time.Duration
	for _, d := range t {
		sum += d
	}
	return sum
}

// Config tunes one pipeline run.
type Config struct {
	// Ident is the identification configuration. Its Budget, if set, is
	// used as-is (the caller owns per-unit budget cloning and deadline
	// stamping); nil gets a fresh default. Its Workers sizes the
	// intra-binary worker pool of the two identification stages: 0 or 1
	// is serial, any negative value resolves to GOMAXPROCS. Results are
	// identical at any value.
	Ident ident.Config
	// CFG configures StageDecode.
	CFG cfg.Options
	// Ctx, when non-nil, is checked at every stage boundary: a canceled
	// context fails the run with the context's error before the next
	// stage starts. Mid-stage cancellation is the budget's job (its
	// Cancel channel); the boundary check is what guarantees a run
	// never *starts* a stage for an abandoned request. Nil means no
	// boundary checks (batch CLI paths).
	Ctx context.Context
}

// resolveWorkers maps the Workers knob to a concrete pool size.
func resolveWorkers(w int) int {
	if w < 0 {
		return runtime.GOMAXPROCS(0)
	}
	if w == 0 {
		return 1
	}
	return w
}

// Result is the typed artifact bundle of one per-binary run.
type Result struct {
	// Graph is the recovered CFG — immutable from here on.
	Graph *cfg.Graph
	// Report is the identification result.
	Report *ident.Report
	// Timings records the cost of every stage that ran.
	Timings Timings
}

// Run executes the per-binary stages — decode, wrapper detection,
// identification — over bin and returns the artifacts with per-stage
// timings. Stitching (for dynamic binaries) is the caller's stage; its
// cost should be added to the returned Timings.
func Run(bin *elff.Binary, conf Config) (*Result, error) {
	conf.Ident.Workers = resolveWorkers(conf.Ident.Workers)
	canceled := func() error {
		if conf.Ctx != nil {
			return conf.Ctx.Err()
		}
		return nil
	}
	out := &Result{}

	// runStage is the per-binary fault boundary at stage granularity:
	// a context check before the body, a panic-to-error conversion
	// around it (guard.Capture tags the stage name and image hash), a
	// fault-injection seam for tests, and the timing record either way
	// — a stage that panics still reports its cost.
	runStage := func(s Stage, body func() error) error {
		if err := canceled(); err != nil {
			return err
		}
		start := time.Now()
		err := guard.Capture(s.String(), bin.Hash, func() error {
			if err := faults.Fire(faults.Stage, s.String(), ":", bin.Hash); err != nil {
				return err
			}
			return body()
		})
		out.Timings.Add(s, time.Since(start))
		return err
	}

	if err := runStage(StageDecode, func() error {
		g, err := cfg.Recover(bin, conf.CFG)
		if err != nil {
			return err
		}
		out.Graph = g
		return nil
	}); err != nil {
		return nil, err
	}

	pass := ident.Prepare(out.Graph, conf.Ident)

	if err := runStage(StageWrappers, pass.DetectWrappers); err != nil {
		return nil, err
	}

	if err := runStage(StageIdentify, func() error {
		rep, err := pass.Identify()
		if err != nil {
			return err
		}
		out.Report = rep
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}
