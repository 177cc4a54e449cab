package reduce_test

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/reduce"
)

// denseGnp is the 1M-edge G(n,p) of the dense MPC workload (n=16000,
// d=128, uniform weights in [1,100)): above the sampled-phase switch, and
// nothing on it reduces.
func denseGnp() *graph.Graph {
	return gen.ApplyWeights(gen.GnpAvgDegree(1, 16000, 128), 2, gen.UniformRange{Lo: 1, Hi: 100})
}

func benchRun(b *testing.B, g *graph.Graph) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reduce.Run(context.Background(), g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunDenseGnp measures a reduction that removes nothing: its cost
// is the rejection of every domination candidate.
func BenchmarkRunDenseGnp(b *testing.B) { benchRun(b, denseGnp()) }

// BenchmarkRunPowerLaw measures a productive reduction on a sparse
// preferential-attachment graph (n=131072, d=8), where pendant and
// domination cascades remove much of the instance.
func BenchmarkRunPowerLaw(b *testing.B) {
	benchRun(b, gen.ApplyWeights(gen.PreferentialAttachment(1, 131072, 4), 2, gen.UniformRange{Lo: 1, Hi: 100}))
}

// TestRunAllocsFlat pins the allocation count of a reduction that removes
// nothing, independent of n and of the number of sweeps: the reducer, its
// flags, degree, worklist and stamp arrays, and the result.
func TestRunAllocsFlat(t *testing.T) {
	g := denseGnp()
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := reduce.Run(context.Background(), g); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 6 {
		t.Fatalf("reduce.Run allocated %v times on an irreducible graph, want at most 6", allocs)
	}
}
