package mwvc_test

// TestBenchFacts pins the deterministic facts of the benchmark instances:
// round counts, words routed, certificates, kernel sizes, improvement and
// allocation counts. None of them needs a timer, so they are checked here
// on every full test run; wall-clock and per-op cost are measured as paired
// medians by perfbench (perfbench/README.md). Each subtest covers one
// benchmark tier: matrix, kernel, improve, pdfast and stream.

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	mwvc "repro"
	"repro/internal/cli"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/verify"
)

// matrixFacts are the measured facts of one benchShapes instance at seed 1,
// ε=0.1. The ratio fields are ceilings, not equalities: a tighter
// certificate may lower them without editing this table.
var matrixFacts = map[string]struct {
	words, messages            int64
	nativeRatio, compressRatio float64
}{
	"n4k_d32":   {47974, 120, 3.901075030047463, 3.908994571373627},
	"n16k_d64":  {255759, 208, 3.9954440591295954, 3.961322581947728},
	"n16k_d256": {446357, 800, 4.081018368653296, 4.104792255137458},
}

// certifiedRatio checks that the rescaled duals are feasible on g and
// returns the cover's certified ratio.
func certifiedRatio(t *testing.T, g *graph.Graph, cover []bool, scaled []float64) float64 {
	t.Helper()
	if err := verify.DualFeasible(g, scaled); err != nil {
		t.Fatalf("rescaled duals infeasible on the original graph: %v", err)
	}
	cert, err := verify.NewCertificate(g, cover, scaled)
	if err != nil {
		t.Fatal(err)
	}
	return cert.Ratio()
}

func TestBenchFacts(t *testing.T) {
	if testing.Short() {
		t.Skip("solves several million-edge instances")
	}
	ctx := context.Background()
	// The improve and pdfast subtests share one 1,047,265-edge G(n,p).
	n64k := sync.OnceValue(func() *graph.Graph { return benchGraph(1<<16, 32) })

	t.Run("matrix", func(t *testing.T) {
		for _, s := range benchShapes {
			want, ok := matrixFacts[s.name]
			if !ok {
				t.Fatalf("%s: no pinned facts", s.name)
			}
			g := benchGraph(s.n, s.d)
			nres, err := core.Run(ctx, g, core.ParamsPractical(0.1, 1))
			if err != nil {
				t.Fatal(err)
			}
			cres, err := compress.Run(ctx, g, compress.DefaultParams(0.1, 1))
			if err != nil {
				t.Fatal(err)
			}
			if nres.Rounds != 6 || cres.Rounds != 4 {
				t.Errorf("%s: rounds native %d compressed %d, want 6 and 4", s.name, nres.Rounds, cres.Rounds)
			}
			if m := nres.ClusterMetrics; m.TotalWords != want.words || m.TotalMessages != want.messages {
				t.Errorf("%s: native routed %d words in %d messages, want %d in %d",
					s.name, m.TotalWords, m.TotalMessages, want.words, want.messages)
			}
			if cres.Fallback {
				t.Errorf("%s: compressed solve fell back to native rounds", s.name)
			}
			local := 0
			for _, k := range cres.LocalRounds {
				local += k
			}
			if cres.Phases == 0 || local <= 3*cres.Phases {
				t.Errorf("%s: %d LOCAL rounds over %d phases, want more than one per MPC round",
					s.name, local, cres.Phases)
			}
			nscaled, _ := nres.FeasibleDual(g)
			cscaled, _ := cres.FeasibleDual(g)
			nratio := certifiedRatio(t, g, nres.Cover, nscaled)
			cratio := certifiedRatio(t, g, cres.Cover, cscaled)
			t.Logf("%s: certified ratio native %.4f compressed %.4f", s.name, nratio, cratio)
			if nratio > want.nativeRatio || cratio > want.compressRatio {
				t.Errorf("%s: certified ratio native %.4f compressed %.4f, ceilings %.4f and %.4f",
					s.name, nratio, cratio, want.nativeRatio, want.compressRatio)
			}
			if cratio > 1.10*nratio {
				t.Errorf("%s: compressed ratio %.4f above 1.10× native %.4f", s.name, cratio, nratio)
			}
		}
	})

	t.Run("kernel", func(t *testing.T) {
		// A preferential-attachment tree: the pendant rule removes all of it.
		g := gen.PreferentialAttachment(1, 1<<20, 1)
		if g.NumEdges() != 1<<20-1 {
			t.Fatalf("generated %d edges, want %d", g.NumEdges(), 1<<20-1)
		}
		solo, err := mwvc.Solve(ctx, g, mwvc.WithSeed(1), mwvc.WithoutReduction())
		if err != nil {
			t.Fatal(err)
		}
		red, err := mwvc.Solve(ctx, g, mwvc.WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("weight %.0f reduced vs %.0f alone (%d rounds)", red.Weight, solo.Weight, solo.Rounds)
		if r := red.Reduction; r == nil || r.KernelVertices != 0 || r.KernelEdges != 0 {
			t.Fatalf("kernel %+v, want 0 vertices and 0 edges", red.Reduction)
		}
		if !red.Exact || red.Rounds != 0 {
			t.Errorf("reduced solve exact=%v rounds=%d, want exact in 0 rounds", red.Exact, red.Rounds)
		}
		if red.Weight > solo.Weight {
			t.Errorf("reduced weight %v above solve-alone %v", red.Weight, solo.Weight)
		}
	})

	t.Run("improve", func(t *testing.T) {
		g := n64k()
		plain, err := mwvc.Solve(ctx, g, mwvc.WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		improved, err := mwvc.Solve(ctx, g, mwvc.WithSeed(1), mwvc.WithImprovement(time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		imp := improved.Improvement
		if imp == nil || !imp.Converged {
			t.Fatalf("improvement %+v, want a converged stage", imp)
		}
		t.Logf("weight %.2f → %.2f in %d steps", plain.Weight, improved.Weight, imp.Steps)
		if improved.Weight >= plain.Weight {
			t.Errorf("improved weight %v not below plain %v", improved.Weight, plain.Weight)
		}
		if math.Float64bits(improved.Bound) != math.Float64bits(plain.Bound) {
			t.Errorf("improvement moved the bound: %v vs %v", improved.Bound, plain.Bound)
		}
	})

	t.Run("pdfast", func(t *testing.T) {
		g := n64k()
		opts := func(a mwvc.Algorithm) []mwvc.Option {
			return []mwvc.Option{mwvc.WithAlgorithm(a), mwvc.WithSeed(1), mwvc.WithoutReduction()}
		}
		serial, err := mwvc.Solve(ctx, g, opts(mwvc.AlgoPDFast)...)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("certified ratio %.4f", serial.CertifiedRatio)
		if serial.CertifiedRatio > 2 {
			t.Errorf("certified ratio %v above 2", serial.CertifiedRatio)
		}
		par, err := mwvc.Solve(ctx, g, opts(mwvc.AlgoPDFastPar)...)
		if err != nil {
			t.Fatal(err)
		}
		for v := range serial.Cover {
			if par.Cover[v] != serial.Cover[v] {
				t.Fatalf("parallel cover diverges at vertex %d", v)
			}
		}
		if math.Float64bits(par.Weight) != math.Float64bits(serial.Weight) ||
			math.Float64bits(par.Bound) != math.Float64bits(serial.Bound) {
			t.Errorf("parallel weight/bound %v/%v, serial %v/%v", par.Weight, par.Bound, serial.Weight, serial.Bound)
		}
		// Averaged over three solves, so that one stray allocation by the
		// runtime (seen under -race) does not count against the solver.
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := mwvc.Solve(ctx, g, opts(mwvc.AlgoPDFast)...); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%.0f allocations per solve", allocs)
		if allocs > 14 {
			t.Errorf("%.0f allocations per solve, want ≤ 14", allocs)
		}
	})

	t.Run("stream", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "gnp.el")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		_, m, err := cli.StreamInstance(f, "gnp", 1<<16, 32, "uniform", 1)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		measure := func(read func() (*graph.Graph, error)) (mallocs, bytes uint64) {
			t.Helper()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			g, err := read()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if int64(g.NumEdges()) != m {
				t.Fatalf("read %d edges, wrote %d", g.NumEdges(), m)
			}
			return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
		}
		// OpenFile reads in one chunk per processor (up to one per MiB), so
		// its allocation count and footprint grow with GOMAXPROCS; pin both
		// at the processor counts the benchmark machines use. The unmeasured
		// first read lets the runtime start its per-processor GC workers,
		// whose goroutines would otherwise count against OpenFile.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			measure(func() (*graph.Graph, error) { return graph.OpenFile(path) })
			streamed, streamBytes := measure(func() (*graph.Graph, error) { return graph.OpenFile(path) })
			buffered, _ := measure(func() (*graph.Graph, error) {
				in, err := os.Open(path)
				if err != nil {
					return nil, err
				}
				defer in.Close()
				return graph.Read(in)
			})
			perEdge := float64(streamBytes) / float64(m)
			t.Logf("GOMAXPROCS %d, %d edges: OpenFile %d allocs, %.1f B/edge; Read %d allocs",
				procs, m, streamed, perEdge, buffered)
			if streamed >= buffered {
				t.Errorf("GOMAXPROCS %d: OpenFile made %d allocations, not fewer than Read's %d", procs, streamed, buffered)
			}
			if perEdge > 32 {
				t.Errorf("GOMAXPROCS %d: OpenFile allocated %.1f bytes per edge, want ≤ 32", procs, perEdge)
			}
		}
	})
}
