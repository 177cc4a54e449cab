package core

import (
	"context"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"repro/internal/centralized"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// maskedFinal is Line (3) run the direct way: Algorithm 1 on all of g
// behind the active mask, with the thresholds drawn on g's vertex ids. It
// is the oracle finalPhase's compacted residual must match bit for bit.
func maskedFinal(g *graph.Graph, active []bool, wres []float64, p Params, phase int) (*centralized.Result, error) {
	eps := p.Epsilon
	opts := centralized.Options{Epsilon: eps, Init: centralized.InitDegreeAware}
	if p.UniformInit {
		opts.Init = centralized.InitUniform
	}
	if p.FixedThresholds {
		opts.Threshold = centralized.FixedThreshold(eps)
	} else {
		lo, hi := 1-4*eps, 1-2*eps
		opts.Threshold = func(v graph.Vertex, t int) float64 {
			return rng.UniformAt(p.Seed, lo, hi, labelThreshold, uint64(phase), uint64(v), uint64(t))
		}
	}
	return centralized.Run(context.Background(), centralized.Instance{G: g, Active: active, Weights: wres}, opts)
}

// TestFinalPhaseResidualMatchesMasked compares finalPhase with the masked
// full-graph run over random graphs, random residual masks (including the
// all-active mask, which takes the no-copy path, and the empty one) and all
// four init/threshold combinations. TestMPCGolden cannot cover a strict
// residual under UniformInit — the uniform-init ablation stalls with
// nothing frozen — so this test requires such cases explicitly.
func TestFinalPhaseResidualMatchesMasked(t *testing.T) {
	rnd := rand.New(rand.NewPCG(3, 0x66696e61))
	strictUniform := 0
	for trial := 0; trial < 240; trial++ {
		n := 1 + rnd.IntN(80)
		g := gen.ApplyWeights(gen.Gnp(rnd.Uint64(), n, 0.03+0.3*rnd.Float64()), rnd.Uint64(), gen.PowerLaw{MaxWeight: 100})
		active := make([]bool, n)
		wres := make([]float64, n)
		keep := []float64{1, 0.8, 0.5, 0.2, 0}[rnd.IntN(5)]
		for v := range active {
			active[v] = keep == 1 || rnd.Float64() < keep
			if active[v] {
				wres[v] = g.Weight(graph.Vertex(v)) * (0.01 + rnd.Float64())
			}
		}
		p := ParamsPractical([]float64{0.05, 0.1}[rnd.IntN(2)], rnd.Uint64())
		p.UniformInit = trial%2 == 1
		p.FixedThresholds = trial%4 >= 2
		phase := rnd.IntN(4)

		want, err := maskedFinal(g, active, wres, p, phase)
		if err != nil {
			t.Fatal(err)
		}
		cover := make([]bool, n)
		x := make([]float64, g.NumEdges())
		last := graph.EdgeID(-1)
		iters, err := finalPhase(context.Background(), g, active, wres, p, phase, cover, func(e graph.EdgeID, xe float64) {
			if e <= last {
				t.Fatalf("trial %d: residual edge %d after %d, want ascending", trial, e, last)
			}
			u, v := g.Edge(e)
			if !active[u] || !active[v] {
				t.Fatalf("trial %d: edge %d with an inactive endpoint handed back", trial, e)
			}
			last, x[e] = e, xe
		})
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case iters != want.Iterations:
			t.Fatalf("trial %d: %d iterations, masked run %d", trial, iters, want.Iterations)
		case !slices.Equal(cover, want.Cover):
			t.Fatalf("trial %d: cover differs from the masked run", trial)
		}
		for e := range x {
			if math.Float64bits(x[e]) != math.Float64bits(want.X[e]) {
				t.Fatalf("trial %d: x[%d] = %v, masked run %v", trial, e, x[e], want.X[e])
			}
		}
		if p.UniformInit && slices.Contains(active, false) && want.Iterations > 0 {
			strictUniform++
		}
	}
	if strictUniform < 20 {
		t.Fatalf("only %d strict UniformInit residuals with edges exercised", strictUniform)
	}
}

// allocPinInstance is a G(n,p) instance dense enough (d = 64 above the
// practical switch-over 2·log₂ n ≈ 24) that Algorithm 2 runs a sampled
// phase before Line (3).
func allocPinInstance() *graph.Graph {
	return gen.ApplyWeights(gen.GnpAvgDegree(11, 4000, 64), 12, gen.UniformRange{Lo: 1, Hi: 100})
}

// TestRunAllocBytesPerEdge pins core.Run's allocation volume per input
// edge on a run with a sampled phase. On this instance the run allocates
// about 36 bytes per edge; growing highEdges by append instead of sizing
// it once raises that to about 52, and running Line (3) on the masked full
// graph (four m-sized arrays) as well to about 75. The bound sits between
// 36 and 52, so it fails if either goes back to m-scaled allocations.
func TestRunAllocBytesPerEdge(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin runs a 128k-edge solve")
	}
	g := allocPinInstance()
	p := ParamsPractical(0.1, 7)
	if _, err := Run(context.Background(), g, p); err != nil { // warm pools
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(context.Background(), g, p)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases == 0 {
		t.Fatal("instance ran no sampled phase; the pin measures nothing")
	}
	perEdge := float64(after.TotalAlloc-before.TotalAlloc) / float64(g.NumEdges())
	t.Logf("%.1f bytes allocated per input edge (%d edges, %d phases, %d final-phase edges)", perEdge, g.NumEdges(), res.Phases, res.FinalPhaseEdges)
	if perEdge > 44 {
		t.Fatalf("core.Run allocated %.1f bytes per input edge, want ≤ 44", perEdge)
	}
}

// BenchmarkRunDense times core.Run with allocation reporting on the
// allocation-pin instance.
func BenchmarkRunDense(b *testing.B) {
	g := allocPinInstance()
	p := ParamsPractical(0.1, 7)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Run(context.Background(), g, p); err != nil {
			b.Fatal(err)
		}
	}
}
