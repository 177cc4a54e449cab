package mwvc_test

// Cross-commit golden pin for the MPC phase driver. The determinism suites
// compare runs against each other within one build; this test compares
// them against digests recorded from an earlier build, so a refactor of
// the driver that changes any output bit — a dual, a cover bit, a round
// count, a phase statistic, an observer event, a coupling record — fails
// here even when it stays self-consistent. Recompute the digests only when
// a behaviour change is intended, and say so in the change description.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"repro/internal/cli"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/solver"
)

// goldenDigest accumulates a canonical little-endian encoding of a result.
type goldenDigest struct{ h hash.Hash }

func newGoldenDigest() *goldenDigest { return &goldenDigest{h: sha256.New()} }

func (d *goldenDigest) u64(x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	d.h.Write(b[:])
}

func (d *goldenDigest) int(x int)     { d.u64(uint64(int64(x))) }
func (d *goldenDigest) f64(x float64) { d.u64(math.Float64bits(x)) }
func (d *goldenDigest) sum() string   { return hex.EncodeToString(d.h.Sum(nil)) }

func (d *goldenDigest) bool(x bool) {
	if x {
		d.int(1)
	} else {
		d.int(0)
	}
}

func (d *goldenDigest) ints(xs ...int) {
	d.int(len(xs))
	for _, x := range xs {
		d.int(x)
	}
}

func (d *goldenDigest) i64s(xs ...int64) {
	d.int(len(xs))
	for _, x := range xs {
		d.u64(uint64(x))
	}
}

func (d *goldenDigest) f64s(xs ...float64) {
	d.int(len(xs))
	for _, x := range xs {
		d.f64(x)
	}
}

// coreResult hashes everything a core.Result reports, the coupling
// capture included, followed by the observer stream.
func (d *goldenDigest) coreResult(r *core.Result, events []solver.Event) {
	d.int(len(r.Cover))
	for _, c := range r.Cover {
		d.bool(c)
	}
	d.f64s(r.X...)
	d.ints(r.Rounds, r.Phases, r.FinalPhaseIterations)
	m := r.ClusterMetrics
	d.i64s(r.FinalPhaseEdges, int64(m.Rounds), m.MaxResidentWords, m.MaxSentWords, m.MaxRecvWords, m.TotalWords, m.TotalMessages)
	d.int(len(r.PhaseStats))
	for _, s := range r.PhaseStats {
		d.ints(s.Phase, s.NumNonfrozen, s.NumHigh, s.NumInactive, s.Machines, s.Iterations,
			s.MaxMachineEdges, s.NewlyFrozenVertices, s.FrozenAtLine2i)
		d.i64s(s.TotalMachineEdges, s.MaxMachineWords, s.EdgesBefore, s.EdgesAfter)
		d.f64s(s.AvgDegree, s.DecayBound)
	}
	d.int(len(r.Coupling))
	for _, c := range r.Coupling {
		d.ints(c.Phase, c.Machines, c.Iterations)
		d.int(len(c.High))
		for i, v := range c.High {
			d.ints(int(v), c.MachineOf[i], c.FreezeIter[i])
			d.f64(c.ResidualWeight[i])
		}
		d.int(len(c.Edges))
		for i, e := range c.Edges {
			d.ints(int(e[0]), int(e[1]))
			d.f64(c.X0[i])
		}
	}
	d.int(len(events))
	for _, e := range events {
		d.ints(int(e.Kind), e.Phase, e.Round, e.Machines, e.Iterations)
		d.i64s(e.ActiveEdges)
		d.f64s(e.DualBound, e.Degree, e.Weight)
	}
}

// goldenWant holds the digests recorded before the native and compressed
// solvers were folded into one phase driver.
var goldenWant = map[string]string{
	"mpc/gnp-uniform/1":                "1c879613eb85c052396a1e2fa9b8dc369cfbce59a740ecbee819e1b058daa269",
	"mpc-compress/gnp-uniform/1":       "4d29b0d404e81f795b9037c15dc0e71db6bd876b0ba33263751fa3b7c9e3bc77",
	"mpc/gnp-uniform/2":                "8d816102afa767396a9e598cf4e84312214dcf6aac9a134eabd99403fc789504",
	"mpc-compress/gnp-uniform/2":       "621fd2840b4212dd56606a2d77b1beeffaa74e1603a2f4f600f450f196c3bb98",
	"mpc/regular-unit/1":               "9e1d0b783b21a59b8230b3316fc60b7e459791395bd98ce41c77091695ed12f7",
	"mpc-compress/regular-unit/1":      "874c0e90b9c2f197c80b3e6d67945288d0a1f043135b442db6f2f1ea5aff551a",
	"mpc/regular-unit/2":               "8f9e68c20fa5bc891b019f730591d72a3d5251bb4dabbd4730e5cccd86fdf8ba",
	"mpc-compress/regular-unit/2":      "9d3d1f514aa18a110789711b3d2b7ed63a2bf3d2cf0dd7801bee8933fda81753",
	"mpc/smallworld-degree/1":          "3f87276a3fa152b5f080044fad85e15a6852bccdee0a36a9c80a2ab3141a10fa",
	"mpc-compress/smallworld-degree/1": "5127333d56286e968ab3774596eacf2c47198b3b93b9a0892c4c0ad7122fb9b1",
	"mpc/smallworld-degree/2":          "895d918d37c65725fd8105646be50ed674a11367fa51ca6e391ff03f8c27642b",
	"mpc-compress/smallworld-degree/2": "1d74fcb9d35b377792afd8c5f6f14f1a50ea8b5629eaad463775f9ed053b4339",
	"mpc/bimodal":                      "5f1db5f8c044f54e67062ed1f3cd3a1538c135b70a7a2728edd3228c09072772",
	"mpc-compress/bimodal":             "64caff260335290dd7d9cd9e27db95e851c8a9e0a63d64b93b323018f1f2be14",
	"mpc-uniform-init":                 "416ee9ee3a0434c8f2929d40fc649d7b84dcabbfb46cdc5a1dc9d43d80f7e50f",
	"mpc-no-bias":                      "a1644e0062e225f4bc7bc2f6b8d5960c4e164d943b37257eeeb3340db4fafe65",
	"mpc-no-inactive-split":            "bbbed83f195dad7030001cf65ae2432293fe520e20512adaa8498be0847d576c",
	"mpc-fixed-thresholds":             "33d8e3a6515c1653d6c70cbaf578ba10101c46cf1392f08383ce49c1aedfc2c9",
	"mpc-coupling":                     "93fdb67937f8aea1581edf206db9f83dbe796a9b8321e088c7c76672930f6007",
	"mpc-compress-split":               "670566ce4252f60864ace6122c08dc5a3d9b5308c8560b3c69ba7bfd70c49d0f",
	"mpc-compress-fallback":            "ce9fb968534fd50fb1b63b51067d00b1fddb93ed586be4f8b2636414c2fce861",
}

func checkGolden(t *testing.T, name string, d *goldenDigest) {
	t.Helper()
	got := d.sum()
	want, ok := goldenWant[name]
	if !ok {
		t.Errorf("%s: no recorded digest (got %s)", name, got)
		return
	}
	if got != want {
		t.Errorf("%s: digest %s, recorded %s", name, got, want)
	}
}

func goldenNative(t *testing.T, name string, g *graph.Graph, p core.Params) {
	t.Helper()
	rec := &eventRecorder{}
	p.Observer = rec
	res, err := core.Run(context.Background(), g, p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.Phases < 1 {
		t.Fatalf("%s: no sampled phase ran; the pin would be vacuous", name)
	}
	d := newGoldenDigest()
	d.coreResult(res, rec.events)
	checkGolden(t, name, d)
}

func goldenCompressed(t *testing.T, name string, g *graph.Graph, p compress.Params) {
	t.Helper()
	rec := &eventRecorder{}
	p.Observer = rec
	res, err := compress.Run(context.Background(), g, p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.Phases < 1 {
		t.Fatalf("%s: no sampled phase ran; the pin would be vacuous", name)
	}
	d := newGoldenDigest()
	d.coreResult(&res.Result, rec.events)
	d.bool(res.Fallback)
	d.ints(res.LocalRounds...)
	d.ints(res.Groups...)
	d.int(res.Splits)
	checkGolden(t, name, d)
}

func goldenWeightedGnp(seed uint64, n int, d float64) *graph.Graph {
	return gen.ApplyWeights(gen.GnpAvgDegree(seed, n, d), seed+1, gen.UniformRange{Lo: 1, Hi: 100})
}

// goldenBimodal is a dense core beside a medium-degree fringe: the core
// keeps the average degree above the switch-over after the first phase, so
// both solvers run several sampled phases and carry residual degrees and
// frozen edges from one phase into the next.
func goldenBimodal(seed uint64) *graph.Graph {
	core := gen.GnpAvgDegree(seed, 1000, 400)
	fringe := gen.GnpAvgDegree(seed+1, 2000, 40)
	b := graph.NewBuilder(3000)
	for e := 0; e < core.NumEdges(); e++ {
		u, v := core.Edge(graph.EdgeID(e))
		b.AddEdge(u, v)
	}
	for e := 0; e < fringe.NumEdges(); e++ {
		u, v := fringe.Edge(graph.EdgeID(e))
		b.AddEdge(u+1000, v+1000)
	}
	return gen.ApplyWeights(b.MustBuild(), seed+2, gen.UniformRange{Lo: 1, Hi: 100})
}

// TestMPCGolden pins both MPC solvers, the E10 ablations, the coupling
// capture, and the compressed solver's split and fallback paths.
func TestMPCGolden(t *testing.T) {
	for _, fam := range compressFamilies {
		for _, seed := range compressSeeds {
			g, err := cli.BuildGraph(fam.gen, fam.n, fam.d, fam.weights, seed)
			if err != nil {
				t.Fatal(err)
			}
			suffix := fam.name + "/" + string(rune('0'+seed))
			goldenNative(t, "mpc/"+suffix, g, core.ParamsPractical(0.1, seed))
			goldenCompressed(t, "mpc-compress/"+suffix, g, compress.DefaultParams(0.1, seed))
		}
	}

	bimodal := goldenBimodal(10)
	goldenNative(t, "mpc/bimodal", bimodal, core.ParamsPractical(0.1, 3))
	goldenCompressed(t, "mpc-compress/bimodal", bimodal, compress.DefaultParams(0.1, 3))

	fam := compressFamilies[0]
	g, err := cli.BuildGraph(fam.gen, fam.n, fam.d, fam.weights, 1)
	if err != nil {
		t.Fatal(err)
	}
	ablations := []struct {
		name string
		set  func(*core.Params)
	}{
		{"uniform-init", func(p *core.Params) { p.UniformInit = true }},
		{"no-bias", func(p *core.Params) { p.DisableBias = true }},
		{"no-inactive-split", func(p *core.Params) { p.DisableInactiveSplit = true }},
		{"fixed-thresholds", func(p *core.Params) { p.FixedThresholds = true }},
		{"coupling", func(p *core.Params) { p.CollectCoupling = true }},
	}
	for _, a := range ablations {
		p := core.ParamsPractical(0.1, 1)
		a.set(&p)
		goldenNative(t, "mpc-"+a.name, g, p)
	}

	split := compress.DefaultParams(0.1, 5)
	split.MemoryWords = func(int) int64 { return 12000 }
	split.GatherWords = func(int) int64 { return 2200 }
	goldenCompressed(t, "mpc-compress-split", goldenWeightedGnp(11, 1200, 24), split)

	fallback := compress.DefaultParams(0.1, 4)
	fallback.GatherWords = func(int) int64 { return 1 }
	goldenCompressed(t, "mpc-compress-fallback", goldenWeightedGnp(13, 800, 32), fallback)
}
