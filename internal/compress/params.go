package compress

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/solver"
)

// Params configures the round-compressed solver. Use DefaultParams or
// PaperParams and adjust fields; the zero value is invalid. The shared
// fields (Epsilon … MemoryWords) have the same meaning as in core.Params;
// the compression-specific knobs are LocalRounds and MaxSplits.
type Params struct {
	// Epsilon is the accuracy parameter ε; the cover weight is certified at
	// (2+O(ε))·OPT, exactly as for the native solver.
	Epsilon float64
	// Seed drives all randomness (group sampling, thresholds) reproducibly.
	Seed uint64
	// HighDegreeExponent is the γ in the V^high rule d(v) ≥ d^γ.
	HighDegreeExponent float64
	// BiasCoefficient and BiasGrowth define the one-sided estimator bias,
	// as in core.Params.
	BiasCoefficient float64
	// BiasGrowth is the per-iteration growth factor of the bias cushion.
	BiasGrowth float64
	// SwitchThreshold returns the average-degree level at which the
	// residual instance moves to one machine.
	SwitchThreshold func(n int) float64
	// LocalRounds returns k, the number of simulated LOCAL rounds run
	// inside each gathered group per compressed MPC round, given the group
	// count. The default matches the native per-phase iteration count
	// (core.Params.PhaseIterations): k is capped by the estimator's
	// deviation budget, so the compression is taken on the round bill —
	// all k LOCAL rounds ride on 3 cluster rounds instead of the native 5
	// — rather than by inflating k (see DefaultParams).
	LocalRounds func(groups int, epsilon float64) int
	// NumGroups returns the number of sampled groups for a compressed
	// round at average residual degree d (√d, as the native machine count).
	NumGroups func(d float64) int
	// MemoryWords returns s, the per-machine memory budget in words, for a
	// graph with n vertices.
	MemoryWords func(n int) int64
	// GatherWords returns the share of a machine's budget that one gathered
	// group may occupy (vertex plus co-located edge records); the remainder
	// is headroom for message framing, the scalar fan-in, and result
	// staging. Nil means MemoryWords(n)/2. The memory precheck splits any
	// partition whose largest group exceeds this.
	GatherWords func(n int) int64
	// MaxSplits bounds how many times an oversized partition is split
	// (group count doubled and redrawn) before the solve falls back to the
	// native round structure (0 = 4).
	MaxSplits int
	// MaxPhases caps the compressed-round loop as a safety net (0 = 64).
	MaxPhases int
	// Parallelism bounds concurrent machine execution (0 = GOMAXPROCS).
	Parallelism int
	// Observer, when non-nil, receives phase, round, and compression
	// events as the algorithm executes (see internal/solver).
	Observer solver.Observer
}

// DefaultParams returns the practical-scale parameter set: the shared
// fields mirror core.ParamsPractical, and LocalRounds matches the native
// PhaseIterations formula, k = max(2, ⌊0.5·ln(groups)/ln(1/(1−ε))⌋).
//
// Keeping k at the native value is deliberate: k is bounded by the
// estimator's deviation budget, not by communication. Raising it makes
// estimator-starved vertices (few co-located edges) freeze late at
// x·(1/(1−ε))^t values the one-sided bias no longer covers, and the
// measured feasibility-violation factor α — hence the certified ratio —
// grows roughly as the extra growth factor (measured: coefficient 0.65
// already costs ≈20% of the certified ratio; 2.0 costs a factor of 13).
// The compression win is therefore taken entirely on the round bill: the
// same k simulated LOCAL rounds ride on 3 accounted cluster rounds
// instead of the native 5, so the simulated-LOCAL-rounds-per-MPC-round
// density rises by 5/3 at an unchanged certificate.
func DefaultParams(epsilon float64, seed uint64) Params {
	cp := core.ParamsPractical(epsilon, seed)
	return Params{
		Epsilon:            cp.Epsilon,
		Seed:               cp.Seed,
		HighDegreeExponent: cp.HighDegreeExponent,
		BiasCoefficient:    cp.BiasCoefficient,
		BiasGrowth:         cp.BiasGrowth,
		SwitchThreshold:    cp.SwitchThreshold,
		NumGroups:          cp.NumMachines,
		MemoryWords:        cp.MemoryWords,
		LocalRounds:        cp.PhaseIterations,
	}
}

// PaperParams returns the paper-constant variant (core.ParamsPaper shared
// fields). As with the native solver, the log³⁰n switch-over makes every
// practically sized instance skip straight to the final centralized phase.
func PaperParams(epsilon float64, seed uint64) Params {
	cp := core.ParamsPaper(epsilon, seed)
	p := DefaultParams(epsilon, seed)
	p.HighDegreeExponent = cp.HighDegreeExponent
	p.BiasCoefficient = cp.BiasCoefficient
	p.BiasGrowth = cp.BiasGrowth
	p.SwitchThreshold = cp.SwitchThreshold
	return p
}

// Validate checks the parameter set.
func (p *Params) Validate() error {
	if p.Epsilon <= 0 || p.Epsilon > 0.125 {
		return fmt.Errorf("compress: epsilon %v out of (0, 0.125]: %w", p.Epsilon, solver.ErrUnsupported)
	}
	if p.HighDegreeExponent <= 0 || p.HighDegreeExponent >= 1 {
		return fmt.Errorf("compress: high-degree exponent %v out of (0, 1)", p.HighDegreeExponent)
	}
	if p.BiasCoefficient < 0 || p.BiasGrowth < 1 {
		return fmt.Errorf("compress: bias parameters (%v, %v) invalid", p.BiasCoefficient, p.BiasGrowth)
	}
	if p.SwitchThreshold == nil || p.LocalRounds == nil || p.NumGroups == nil || p.MemoryWords == nil {
		return fmt.Errorf("compress: nil parameter function (use DefaultParams/PaperParams as a base)")
	}
	if p.MaxSplits < 0 {
		return fmt.Errorf("compress: negative MaxSplits %d", p.MaxSplits)
	}
	if p.MaxPhases < 0 {
		return fmt.Errorf("compress: negative MaxPhases %d", p.MaxPhases)
	}
	return nil
}
