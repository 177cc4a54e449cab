package compress

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
)

// Result is the outcome of a round-compressed run. It embeds core.Result —
// the cover, finalized duals, round/phase counts, and per-phase stats have
// identical semantics — and adds the compression measurements.
type Result struct {
	core.Result
	// Fallback reports that the memory precheck could not fit the sampled
	// groups even after MaxSplits splits, and the whole solve was delegated
	// to the native round structure (core.Run). When set, the round counts
	// and events are the native solver's.
	Fallback bool
	// LocalRounds[i] is k — the number of simulated LOCAL rounds executed
	// inside each gathered group — for compressed round i.
	LocalRounds []int
	// Groups[i] is the sampled group count of compressed round i, after
	// any splits.
	Groups []int
	// Splits counts the partition redraws forced by the memory precheck
	// across the whole run.
	Splits int
}

// Run executes the round-compressed Algorithm 2 on g (core.RunCompressed).
// Each compressed MPC round costs three accounted cluster rounds (scatter,
// simulate, collect) instead of the native five, and simulates
// LocalRounds(k) LOCAL rounds inside each gathered group. The context is
// checked between phases, between cluster rounds, and inside the final
// centralized phase.
func Run(ctx context.Context, g *graph.Graph, p Params) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	maxSplits := p.MaxSplits
	if maxSplits == 0 {
		maxSplits = 4
	}
	cp := coreParams(p)
	res, splits, fallback, err := core.RunCompressed(ctx, g, cp, p.GatherWords, maxSplits)
	if err != nil {
		return nil, err
	}
	if fallback {
		// The sampled groups cannot fit the per-machine budget even after
		// splitting: delegate the whole solve to the native round
		// structure. Restarting from scratch keeps the native solver's
		// invariants intact (it owns its state from phase 0) at the cost
		// of discarding any compressed progress — in practice the
		// precheck fails on the first round or not at all, since groups
		// only shrink as the instance contracts. The compression knob is
		// dropped in favor of core's own PhaseIterations.
		cp.PhaseIterations = core.ParamsPractical(p.Epsilon, p.Seed).PhaseIterations
		nres, err := core.Run(ctx, g, cp)
		if err != nil {
			return nil, fmt.Errorf("compress: native fallback: %w", err)
		}
		return &Result{Result: *nres, Fallback: true, Splits: splits}, nil
	}
	out := &Result{Result: *res, Splits: splits}
	for _, s := range res.PhaseStats {
		out.LocalRounds = append(out.LocalRounds, s.Iterations)
		out.Groups = append(out.Groups, s.Machines)
	}
	return out, nil
}

// coreParams maps a compress parameter set onto the phase driver: the
// shared fields transfer, LocalRounds becomes the per-phase iteration count
// and NumGroups the machine count.
func coreParams(p Params) core.Params {
	return core.Params{
		Epsilon:            p.Epsilon,
		Seed:               p.Seed,
		HighDegreeExponent: p.HighDegreeExponent,
		BiasCoefficient:    p.BiasCoefficient,
		BiasGrowth:         p.BiasGrowth,
		SwitchThreshold:    p.SwitchThreshold,
		PhaseIterations:    p.LocalRounds,
		NumMachines:        p.NumGroups,
		MemoryWords:        p.MemoryWords,
		MaxPhases:          p.MaxPhases,
		Parallelism:        p.Parallelism,
		Observer:           p.Observer,
	}
}
