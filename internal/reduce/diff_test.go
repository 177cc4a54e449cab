package reduce_test

import (
	"context"
	"math/rand/v2"
	"testing"

	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/reduce"
	"repro/internal/verify"
)

// assertMatchesReference runs Run and the reference reducer on g and fails
// unless they agree exactly (see reduce.DiffResults).
func assertMatchesReference(t *testing.T, g *graph.Graph) *reduce.Result {
	t.Helper()
	got, err := reduce.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := reduce.RefRun(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if d := reduce.DiffResults(got, want); d != "" {
		t.Fatal(d)
	}
	if got.Trace == nil && got.Kernel != g {
		t.Fatal("irreducible instance did not alias the input")
	}
	return got
}

// blowUp replaces every vertex of base by a group of size copies; copies of
// adjacent base vertices are fully joined, and every other group is a
// clique (closed twins, N[a] = N[b]) while the rest are independent sets
// (open twins, N(a) = N(b)).
func blowUp(base *graph.Graph, size int) *graph.Graph {
	n := base.NumVertices()
	b := graph.NewBuilder(n * size)
	id := func(v graph.Vertex, i int) graph.Vertex { return v*graph.Vertex(size) + graph.Vertex(i) }
	for v := graph.Vertex(0); int(v) < n; v++ {
		if v%2 == 0 {
			for i := 0; i < size; i++ {
				for j := i + 1; j < size; j++ {
					b.AddEdge(id(v, i), id(v, j))
				}
			}
		}
		for _, u := range base.Neighbors(v) {
			if u < v {
				continue
			}
			for i := 0; i < size; i++ {
				for j := 0; j < size; j++ {
					b.AddEdge(id(v, i), id(u, j))
				}
			}
		}
	}
	return b.MustBuild()
}

// cliqueUnion overlays k random cliques of 3 to 8 vertices on n vertices:
// overlapping cliques nest neighborhoods, so domination fires and cascades.
func cliqueUnion(seed uint64, n, k int) *graph.Graph {
	rnd := rand.New(rand.NewPCG(seed, 0x636c69717565))
	b := graph.NewBuilder(n)
	members := make([]graph.Vertex, 0, 8)
	for c := 0; c < k; c++ {
		members = members[:0]
		for s := 3 + rnd.IntN(6); len(members) < s; {
			members = append(members, graph.Vertex(rnd.IntN(n)))
		}
		for i, u := range members {
			for _, v := range members[i+1:] {
				if u != v {
					b.AddEdge(u, v)
				}
			}
		}
	}
	return b.MustBuild()
}

// TestMatchesReference is the differential oracle: on every graph family
// and weight model, Run's filtered dirty-set sweep must reproduce the
// reference reducer's unfiltered full sweeps bit for bit. Unit weights
// exercise the w(u) == w(v) ties; the twin and clique families make
// domination fire and cascade across sweeps.
func TestMatchesReference(t *testing.T) {
	families := []struct {
		name  string
		build func(seed uint64) *graph.Graph
		// dominates: domination must fire somewhere in the family, so
		// the comparison is not vacuous.
		dominates bool
	}{
		{"gnp-sparse", func(s uint64) *graph.Graph { return gen.GnpAvgDegree(s, 3000, 3) }, true},
		{"gnp-dense", func(s uint64) *graph.Graph { return gen.GnpAvgDegree(s, 1000, 48) }, false},
		{"powerlaw", func(s uint64) *graph.Graph { return gen.PreferentialAttachment(s, 4000, 3) }, true},
		{"bipartite", func(s uint64) *graph.Graph { return gen.RandomBipartite(s, 600, 900, 0.004) }, false},
		{"twins", func(s uint64) *graph.Graph { return blowUp(gen.GnpAvgDegree(s, 300, 3), 3) }, true},
		{"cliques", func(s uint64) *graph.Graph { return cliqueUnion(s, 2000, 700) }, true},
	}
	weights := []gen.WeightModel{gen.Unit{}, gen.UniformRange{Lo: 1, Hi: 10}, gen.PowerLaw{MaxWeight: 1e6}}
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			dominations := 0
			for seed := uint64(1); seed <= 3; seed++ {
				base := fam.build(seed)
				for _, wm := range weights {
					res := assertMatchesReference(t, gen.ApplyWeights(base, seed+11, wm))
					dominations += res.Stats.Domination
				}
			}
			if fam.dominates && dominations == 0 {
				t.Error("domination never fired on this family")
			}
		})
	}
}

// FuzzReduce decodes arbitrary bytes into a small weighted graph and checks
// Run against the reference reducer, and — for n ≤ 18, where brute force
// is cheap — that the reduction preserves the optimum exactly:
// OPT(G) = ForcedWeight + OPT(kernel). Weights are small multiples of 1/4,
// so equal-weight ties are common and every sum is exact.
func FuzzReduce(f *testing.F) {
	// More seeds, among them the cascade of TestCascadeAcrossSweeps, live in
	// testdata/fuzz/FuzzReduce.
	f.Add([]byte{5, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 4, 0, 4, 0, 0}) // 5-cycle, weight 1/4
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			t.Skip()
		}
		n := 1 + int(data[0])%24
		b := graph.NewBuilder(n)
		for v := 0; v < n; v++ {
			b.SetWeight(graph.Vertex(v), 1)
		}
		// Each 3-byte window contributes one edge and sets the weight of
		// its second endpoint.
		for i := 1; i+2 < len(data); i += 3 {
			u := graph.Vertex(int(data[i]) % n)
			v := graph.Vertex(int(data[i+1]) % n)
			if u != v {
				b.AddEdge(u, v)
			}
			b.SetWeight(v, 0.25+float64(data[i+2]%32)/4)
		}
		g, err := b.Build()
		if err != nil {
			t.Fatalf("decoder produced an invalid instance: %v", err)
		}
		res := assertMatchesReference(t, g)
		if n > 18 {
			return
		}
		_, opt, err := exact.BruteForce(g)
		if err != nil {
			t.Fatal(err)
		}
		kernelCover, kernelOpt := []bool{}, 0.0
		if res.Stats.KernelVertices > 0 {
			if kernelCover, kernelOpt, err = exact.BruteForce(res.Kernel); err != nil {
				t.Fatal(err)
			}
		}
		cover, forcedW := kernelCover, 0.0
		if res.Trace != nil {
			cover, forcedW = res.Trace.Lift(kernelCover)
		}
		if forcedW+kernelOpt != opt {
			t.Fatalf("forced %v + kernel OPT %v != OPT %v (stats %+v)", forcedW, kernelOpt, opt, res.Stats)
		}
		if ok, e := verify.IsCover(g, cover); !ok {
			t.Fatalf("lifted optimal cover misses edge %d", e)
		}
	})
}
