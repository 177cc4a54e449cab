package centralized

// This file keeps a test-only reference implementation of Run and the exact
// comparison against it.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/solver"
)

// referenceRun is Run with the main loop in its original full-scan form:
// every iteration rescans all n vertices for the freeze test and all m
// edges and n vertices for the growth step, and a caller's X0 is always
// copied. It is the differential oracle for the worklist loop, which must
// agree with it bit for bit.
func referenceRun(ctx context.Context, inst Instance, opts Options) (*Result, error) {
	g := inst.G
	if g == nil {
		return nil, errors.New("centralized: nil graph")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Epsilon <= 0 || opts.Epsilon > 0.125 {
		return nil, fmt.Errorf("centralized: epsilon %v out of (0, 0.125]", opts.Epsilon)
	}
	n, m := g.NumVertices(), g.NumEdges()
	active := make([]bool, n)
	if inst.Active == nil {
		for v := range active {
			active[v] = true
		}
	} else {
		if len(inst.Active) != n {
			return nil, fmt.Errorf("centralized: active mask length %d, want %d", len(inst.Active), n)
		}
		copy(active, inst.Active)
	}
	w := inst.Weights
	if w == nil {
		w = g.Weights()
	} else if len(w) != n {
		return nil, fmt.Errorf("centralized: weight vector length %d, want %d", len(w), n)
	}
	for v := 0; v < n; v++ {
		if active[v] && !(w[v] > 0) {
			return nil, fmt.Errorf("centralized: active vertex %d has non-positive weight %v", v, w[v])
		}
	}

	x0 := inst.X0
	if x0 == nil {
		var err error
		if x0, err = DeriveX0(Instance{G: g, Active: active, Weights: w}, opts.Init); err != nil {
			return nil, err
		}
	} else if len(x0) != m {
		return nil, fmt.Errorf("centralized: X0 length %d, want %d", len(x0), m)
	}

	threshold := opts.Threshold
	if threshold == nil {
		threshold = RandomThresholds(opts.Seed, opts.Epsilon)
	}

	growth := 1 / (1 - opts.Epsilon)

	// Edge activity and the incremental incident sums.
	// yActive[v] = Σ over active incident edges of the *current* x_e;
	// yFrozen[v] = Σ over frozen incident edges of their final x_e.
	x := make([]float64, m)
	edgeActive := make([]bool, m)
	edgeFreeze := make([]int32, m)
	yActive := make([]float64, n)
	yFrozen := make([]float64, n)
	activeEdges := 0
	maxRatio := 1.0
	for e := 0; e < m; e++ {
		edgeFreeze[e] = -1
		u, v := g.Edge(graph.EdgeID(e))
		if !active[u] || !active[v] {
			continue
		}
		if !(x0[e] > 0) {
			return nil, fmt.Errorf("centralized: initial x[%d] = %v, want positive", e, x0[e])
		}
		x[e] = x0[e]
		edgeActive[e] = true
		activeEdges++
		yActive[u] += x0[e]
		yActive[v] += x0[e]
		if r := math.Min(w[u], w[v]) / x0[e]; r > maxRatio {
			maxRatio = r
		}
	}
	for v := 0; v < n; v++ {
		if active[v] && yActive[v] > w[v]*(1+1e-9) {
			return nil, fmt.Errorf("centralized: initial matching infeasible at vertex %d: %v > %v", v, yActive[v], w[v])
		}
	}

	maxIter := opts.MaxIterations
	if maxIter == 0 {
		// An active edge e=(u,v) reaches x_e ≥ min(w(u), w(v)) after at most
		// log_growth(maxRatio) iterations, at which point an endpoint must
		// have frozen (its threshold is at most (1−2ε) < 1). +3 for slack.
		maxIter = int(math.Ceil(math.Log(maxRatio)/math.Log(growth))) + 3
	}

	res := &Result{
		Cover:          make([]bool, n),
		FreezeIter:     make([]int, n),
		EdgeFreezeIter: edgeFreeze,
	}
	for v := range res.FreezeIter {
		res.FreezeIter[v] = -1
	}

	// frozenDualSum tracks Σ x_e over frozen (finalized) edges for observer
	// events; it is the raw dual total the certificate later builds on.
	frozenDualSum := 0.0
	var freezeList []graph.Vertex
	t := 0
	for ; activeEdges > 0; t++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if opts.StopAfter > 0 && t >= opts.StopAfter {
			break
		}
		if t >= maxIter {
			return nil, fmt.Errorf("centralized: no termination after %d iterations (%d active edges remain)", t, activeEdges)
		}
		res.ActiveEdgesPerIter = append(res.ActiveEdgesPerIter, activeEdges)
		if opts.RecordTrace {
			snap := make([]float64, n)
			for v := 0; v < n; v++ {
				snap[v] = yActive[v] + yFrozen[v]
			}
			res.YTrace = append(res.YTrace, snap)
		}

		// Line (4a): simultaneous freeze test against start-of-iteration y.
		freezeList = freezeList[:0]
		for v := 0; v < n; v++ {
			if active[v] && yActive[v]+yFrozen[v] >= threshold(graph.Vertex(v), t)*w[v] {
				freezeList = append(freezeList, graph.Vertex(v))
			}
		}
		for _, v := range freezeList {
			active[v] = false
			res.Cover[v] = true
			res.FreezeIter[v] = t
		}
		for _, v := range freezeList {
			ids := g.IncidentEdges(v)
			for _, e := range ids {
				if !edgeActive[e] {
					continue
				}
				edgeActive[e] = false
				edgeFreeze[e] = int32(t)
				activeEdges--
				frozenDualSum += x[e]
				u := g.Other(e, v)
				// Move the edge's weight from the active to the frozen sum of
				// the surviving endpoint (and of v itself, harmlessly).
				yActive[u] -= x[e]
				yFrozen[u] += x[e]
				yActive[v] -= x[e]
				yFrozen[v] += x[e]
			}
		}

		// Lines (4b)/(4c): active edges grow by 1/(1−ε); frozen stay.
		if activeEdges > 0 {
			for e := 0; e < m; e++ {
				if edgeActive[e] {
					x[e] *= growth
				}
			}
			for v := 0; v < n; v++ {
				if active[v] {
					yActive[v] *= growth
				}
			}
		}
		solver.Emit(opts.Observer, solver.Event{
			Kind:        solver.KindRound,
			Phase:       -1,
			Round:       t + 1,
			ActiveEdges: int64(activeEdges),
			DualBound:   frozenDualSum,
		})
	}
	if opts.RecordTrace {
		// One extra snapshot so YTrace[t] is defined for t = Iterations as
		// well (the state after the last growth step), which the Lemma 4.6
		// coupling compares against.
		snap := make([]float64, n)
		for v := 0; v < n; v++ {
			snap[v] = yActive[v] + yFrozen[v]
		}
		res.YTrace = append(res.YTrace, snap)
	}
	res.Iterations = t
	res.X = x
	return res, nil
}

// diffResults returns "" when two runs agree exactly — X, Cover,
// FreezeIter, EdgeFreezeIter, Iterations, ActiveEdgesPerIter and YTrace,
// floats compared by their bits — and otherwise names the first difference.
func diffResults(got, want *Result) string {
	switch {
	case !slices.Equal(got.Cover, want.Cover):
		return "cover differs"
	case !slices.Equal(got.FreezeIter, want.FreezeIter):
		return "vertex freeze iterations differ"
	case !slices.Equal(got.EdgeFreezeIter, want.EdgeFreezeIter):
		return "edge freeze iterations differ"
	case got.Iterations != want.Iterations:
		return fmt.Sprintf("iterations %d, reference %d", got.Iterations, want.Iterations)
	case !slices.Equal(got.ActiveEdgesPerIter, want.ActiveEdgesPerIter):
		return "active-edge trace differs"
	case !sameBits(got.X, want.X):
		return "duals differ"
	case len(got.YTrace) != len(want.YTrace):
		return fmt.Sprintf("%d y snapshots, reference %d", len(got.YTrace), len(want.YTrace))
	}
	for t := range want.YTrace {
		if !sameBits(got.YTrace[t], want.YTrace[t]) {
			return fmt.Sprintf("y snapshot %d differs", t)
		}
	}
	return ""
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// recordEvents returns an observer appending every event to *dst.
func recordEvents(dst *[]solver.Event) solver.Observer {
	return solver.ObserverFunc(func(e solver.Event) { *dst = append(*dst, e) })
}

// TestRunMatchesReference drives Run and referenceRun over random graphs ×
// random active masks × residual weights × explicit X0 × StopAfter ×
// RecordTrace × both init policies × random and fixed thresholds, and
// requires identical results, identical event streams and identical
// errors. A caller's X0 must come back unmodified.
func TestRunMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewPCG(15, 0x63656e74))
	cases := 0
	for trial := 0; trial < 400; trial++ {
		n := 1 + rnd.IntN(60)
		g := gen.ApplyWeights(gen.Gnp(rnd.Uint64(), n, 0.02+0.4*rnd.Float64()), rnd.Uint64(), gen.PowerLaw{MaxWeight: 1000})
		m := g.NumEdges()
		inst := Instance{G: g}
		if rnd.IntN(3) > 0 {
			inst.Active = make([]bool, n)
			for v := range inst.Active {
				inst.Active[v] = rnd.IntN(4) > 0
			}
		}
		if rnd.IntN(3) == 0 {
			inst.Weights = make([]float64, n)
			for v := range inst.Weights {
				inst.Weights[v] = g.Weight(graph.Vertex(v)) * (0.05 + rnd.Float64())
			}
		}
		opts := Options{Epsilon: []float64{0.01, 0.05, 0.1, 0.125}[rnd.IntN(4)], Seed: rnd.Uint64()}
		if rnd.IntN(2) == 0 {
			opts.Init = InitUniform
		}
		if rnd.IntN(2) == 0 {
			opts.Threshold = FixedThreshold(opts.Epsilon)
		}
		if rnd.IntN(3) == 0 {
			opts.StopAfter = 1 + rnd.IntN(8)
		}
		if rnd.IntN(8) == 0 {
			opts.MaxIterations = 1 + rnd.IntN(4) // may provoke the no-termination error
		}
		opts.RecordTrace = rnd.IntN(2) == 0
		var x0Copy []float64
		if rnd.IntN(3) == 0 {
			// A feasible explicit X0: the derived one scaled per edge, with
			// garbage on edges that have an inactive endpoint (ignored).
			x0, err := DeriveX0(inst, opts.Init)
			if err != nil {
				t.Fatal(err)
			}
			for e := range x0 {
				if x0[e] == 0 {
					x0[e] = rnd.Float64() * 100
				} else {
					x0[e] *= 0.1 + 0.9*rnd.Float64()
				}
			}
			if m > 0 && rnd.IntN(10) == 0 {
				x0[rnd.IntN(m)] = 0 // rejected if that edge is active
			}
			inst.X0 = x0
			x0Copy = slices.Clone(x0)
		}

		var gotEv, wantEv []solver.Event
		gotOpts, wantOpts := opts, opts
		gotOpts.Observer, wantOpts.Observer = recordEvents(&gotEv), recordEvents(&wantEv)
		got, gotErr := Run(context.Background(), inst, gotOpts)
		want, wantErr := referenceRun(context.Background(), inst, wantOpts)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("trial %d: error %v, reference %v", trial, gotErr, wantErr)
		}
		if x0Copy != nil && !sameBits(inst.X0, x0Copy) {
			t.Fatalf("trial %d: Run modified the caller's X0", trial)
		}
		if wantErr != nil {
			continue
		}
		if d := diffResults(got, want); d != "" {
			t.Fatalf("trial %d (n=%d m=%d opts=%+v): %s", trial, n, m, opts, d)
		}
		if !slices.Equal(gotEv, wantEv) {
			t.Fatalf("trial %d: event streams differ", trial)
		}
		cases++
	}
	if cases < 300 {
		t.Fatalf("only %d of 400 trials ran to completion", cases)
	}
}

// TestRunCancelledMatchesReference checks that both loops honour a
// cancelled context identically.
func TestRunCancelledMatchesReference(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := gen.Gnp(3, 30, 0.2)
	_, gotErr := Run(ctx, Instance{G: g}, Options{Epsilon: 0.1})
	_, wantErr := referenceRun(ctx, Instance{G: g}, Options{Epsilon: 0.1})
	if !errors.Is(gotErr, context.Canceled) || !errors.Is(wantErr, context.Canceled) {
		t.Fatalf("errors %v / %v, want context.Canceled", gotErr, wantErr)
	}
}
