package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	mwvc "repro"
	"repro/internal/cli"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/reduce"
	"repro/internal/solver"
	"repro/internal/verify"
)

// epsilon is the facade's default accuracy parameter; the traced pass
// passes it explicitly to the solvers it calls stage by stage.
const epsilon = 0.1

// libOp is one library solve: which instance, which algorithm, which
// solver seed.
type libOp struct {
	graph int
	algo  mwvc.Algorithm
	seed  uint64
}

// libWorkload drives mwvc.Solve from a single caller: dense-mpc on
// in-memory graphs, file-sparse on graph files read by every op.
type libWorkload struct {
	graphs    []*graph.Graph // the generated instances: the reference for every check
	files     []string       // file-sparse: the instances on disk, read by every op
	fileBytes []int64
	dir       string // file-sparse: holds files, removed by close
	seq       []libOp
}

// newDense builds dense-mpc: two weighted G(n,p) graphs above the switch
// threshold, and a block that alternates mpc and mpc-compress over them.
func newDense(ctx context.Context, seed uint64, sz sizes) (*libWorkload, error) {
	w := &libWorkload{}
	for i := range 2 {
		g, err := cli.BuildGraph("gnp", sz.denseN, sz.denseD, "uniform", mix(seed, 'D', uint64(i)))
		if err != nil {
			return nil, err
		}
		w.graphs = append(w.graphs, g)
	}
	for j := range 8 {
		algo := mwvc.AlgoMPC
		if j%2 == 1 {
			algo = mwvc.AlgoMPCCompress
		}
		w.seq = append(w.seq, libOp{graph: j / 2 % 2, algo: algo, seed: mix(seed, 'S', uint64(j))})
	}
	return w, w.warm(ctx, 2)
}

// newFile builds file-sparse: three preferential-attachment graphs written
// as text files under dir, and a block that reads and solves each twice.
func newFile(ctx context.Context, seed uint64, sz sizes, dir string) (*libWorkload, error) {
	tmp, err := os.MkdirTemp(dir, "data-")
	if err != nil {
		return nil, err
	}
	w := &libWorkload{dir: tmp}
	for i := range 3 {
		g, err := cli.BuildGraph("powerlaw", sz.fileN, sz.fileD, "uniform", mix(seed, 'F', uint64(i)))
		if err != nil {
			w.close()
			return nil, err
		}
		path := filepath.Join(tmp, fmt.Sprintf("g%d.txt", i))
		n, err := writeGraphFile(path, g)
		if err != nil {
			w.close()
			return nil, err
		}
		w.graphs = append(w.graphs, g)
		w.files = append(w.files, path)
		w.fileBytes = append(w.fileBytes, n)
	}
	for j := range 6 {
		w.seq = append(w.seq, libOp{graph: j % 3, algo: mwvc.AlgoMPC, seed: mix(seed, 'S', uint64(j))})
	}
	if err := w.warm(ctx, 1); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// writeGraphFile writes g in the canonical text format and returns the
// file size.
func writeGraphFile(path string, g *graph.Graph) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := mwvc.WriteGraph(f, g); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// warm runs the first n ops of the block once, untimed, and checks them.
func (w *libWorkload) warm(ctx context.Context, n int) error {
	for _, o := range w.seq[:n] {
		r := w.plain(ctx, o)
		if r.err == nil {
			r.err = r.check(&r)
		}
		if r.err != nil {
			return fmt.Errorf("warm-up %s: %w", o.algo, r.err)
		}
	}
	return nil
}

// prepare flushes the graph files to disk, so that write-back does not run
// during the timed phase; the pages stay in the page cache. It runs outside
// the set-up clock, which would otherwise time the disk rather than the
// program, and is a cheap no-op once the files are clean.
func (w *libWorkload) prepare() error {
	for _, path := range w.files {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		err = f.Sync()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *libWorkload) close() {
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}

func (w *libWorkload) run(ctx context.Context, tr *tracer, base int, ls samples) []op {
	ops := make([]op, len(w.seq))
	for j, o := range w.seq {
		if tr != nil {
			ops[j] = w.traced(ctx, tr, base+j, o, ls)
		} else {
			ops[j] = w.plain(ctx, o)
		}
	}
	return ops
}

// plain is the untraced op: the CLI path's ReadGraphFile (file-sparse) and
// one mwvc.Solve with default options.
func (w *libWorkload) plain(ctx context.Context, o libOp) op {
	start := time.Now()
	g := w.graphs[o.graph]
	if w.files != nil {
		var err error
		if g, err = mwvc.ReadGraphFile(w.files[o.graph]); err != nil {
			return op{latency: time.Since(start), err: err}
		}
	}
	sol, err := mwvc.Solve(ctx, g, mwvc.WithAlgorithm(o.algo), mwvc.WithSeed(o.seed))
	lat := time.Since(start)
	if err != nil {
		return op{latency: lat, err: err}
	}
	ref := w.graphs[o.graph]
	return op{latency: lat, check: func(p *op) error {
		p.setSolution(sol.Weight, sol.Bound, sol.CertifiedRatio, sol.Rounds)
		return checkCover(ref, string(o.algo), sol.Cover, sol.Weight, sol.Bound)
	}}
}

// traced replays mwvc.Solve's pipeline stage by stage through each layer's
// public functions — graph.OpenFile, reduce.Run, the solver, Trace.Lift and
// LiftDuals, verify — recording a span and layer samples around each.
func (w *libWorkload) traced(ctx context.Context, tr *tracer, id int, o libOp, ls samples) op {
	start := time.Now()
	root := tr.begin(id, -1, "op")
	fail := func(err error) op {
		tr.end(root)
		return op{latency: time.Since(start), err: err}
	}
	g := w.graphs[o.graph]
	if w.files != nil {
		a0 := totalAlloc()
		s := tr.begin(id, root, "graph.open")
		var err error
		g, err = graph.OpenFile(w.files[o.graph])
		d := tr.end(s)
		if err != nil {
			return fail(err)
		}
		ls.add("graph.open_ms", ms(d))
		ls.add("graph.open_mb_s", float64(w.fileBytes[o.graph])/1e6/d.Seconds())
		ls.add("graph.open_alloc_mb", float64(totalAlloc()-a0)/1e6)
	}

	s := tr.begin(id, root, "reduce")
	red, err := reduce.Run(ctx, g)
	d := tr.end(s)
	if err != nil {
		return fail(err)
	}
	st := red.Stats
	ls.add("reduce.ms", ms(d))
	ls.add("reduce.vertices_removed_frac", frac(st.OriginalVertices-st.KernelVertices, st.OriginalVertices))
	ls.add("reduce.edges_removed_frac", frac(st.OriginalEdges-st.KernelEdges, st.OriginalEdges))
	ls.add("reduce.pendant", float64(st.Pendant))
	ls.add("reduce.domination", float64(st.Domination))
	work, trc := g, red.Trace
	if trc != nil {
		work = red.Kernel
	}

	s = tr.begin(id, root, "solve."+string(o.algo))
	out := &solver.Outcome{Cover: []bool{}, Exact: true}
	if trc == nil || work.NumVertices() > 0 {
		out, err = solveStaged(ctx, tr, id, s, work, o, ls)
	}
	d = tr.end(s)
	if err != nil {
		return fail(err)
	}
	ls.add("solve.ms."+string(o.algo), ms(d))

	cover, duals, forced := out.Cover, out.Duals, 0.0
	if trc != nil {
		s = tr.begin(id, root, "lift")
		cover, forced = trc.Lift(out.Cover)
		if out.Duals != nil {
			duals = trc.LiftDuals(out.Duals)
		}
		ls.add("reduce.lift_ms", ms(tr.end(s)))
	}

	s = tr.begin(id, root, "verify")
	weight, bound, ratio, err := certify(g, cover, duals, forced, out.Exact)
	ls.add("verify.ms", ms(tr.end(s)))
	tr.end(root)
	lat := time.Since(start)
	if err != nil {
		return op{latency: lat, err: err}
	}
	ref := w.graphs[o.graph]
	return op{latency: lat, check: func(p *op) error {
		p.setSolution(weight, bound, ratio, out.Rounds)
		return checkCover(ref, string(o.algo), cover, weight, bound)
	}}
}

// solveStaged runs mpc or mpc-compress on the (kernel) instance: core.Run
// or compress.Run with the params the registry adapter builds, so the
// cluster metrics and the dual violation factor α are visible.
func solveStaged(ctx context.Context, tr *tracer, id, parent int, g *graph.Graph, o libOp, ls samples) (*solver.Outcome, error) {
	now := time.Now()
	obs := &phaseObserver{tr: tr, op: id, solve: parent, ls: ls, phase: -1, last: now, lastPhase: now}
	var res *core.Result
	var x []float64
	var alpha float64
	switch o.algo {
	case mwvc.AlgoMPC:
		p := core.ParamsPractical(epsilon, o.seed)
		p.Observer = obs
		r, err := core.Run(ctx, g, p)
		if err != nil {
			return nil, err
		}
		res = r
		x, alpha = r.FeasibleDual(g)
	case mwvc.AlgoMPCCompress:
		p := compress.DefaultParams(epsilon, o.seed)
		p.Observer = obs
		r, err := compress.Run(ctx, g, p)
		if err != nil {
			return nil, err
		}
		res = &r.Result
		x, alpha = r.FeasibleDual(g)
		lr := make([]float64, len(r.LocalRounds))
		for i, k := range r.LocalRounds {
			lr[i] = float64(k)
		}
		if len(lr) > 0 {
			ls.add("compress.local_rounds_per_round", mean(lr))
		}
		ls.add("compress.splits", float64(r.Splits))
		ls.add("compress.fallback_frac", b2f(r.Fallback))
	default:
		return nil, fmt.Errorf("no staged path for algorithm %q", o.algo)
	}
	ls.add("core.phases", float64(res.Phases))
	ls.add("core.final_phase_edges", float64(res.FinalPhaseEdges))
	ls.add("core.alpha", alpha)
	cm := res.ClusterMetrics
	ls.add("mpc.total_words", float64(cm.TotalWords))
	ls.add("mpc.total_messages", float64(cm.TotalMessages))
	ls.add("mpc.max_resident_words", float64(cm.MaxResidentWords))
	ls.add("mpc.max_recv_words", float64(cm.MaxRecvWords))
	return &solver.Outcome{Cover: res.Cover, Duals: x, Rounds: res.Rounds, Phases: res.Phases}, nil
}

// phaseObserver timestamps the solver's event stream into spans: one per
// sampled phase, one per MPC round (from the previous round or phase
// boundary), and one for the final single-machine phase.
type phaseObserver struct {
	tr        *tracer
	op, solve int // op id and the enclosing solve span
	ls        samples
	phase     int       // open phase span, -1 outside a phase
	last      time.Time // previous round or phase boundary
	lastPhase time.Time // end of the last sampled phase (or solve start)
}

func (o *phaseObserver) OnEvent(e solver.Event) {
	now := time.Now()
	switch e.Kind {
	case solver.KindPhaseStart:
		o.phase = o.tr.record(o.op, o.solve, "core.phase", now, now)
		o.last = now
	case solver.KindRound:
		parent := o.solve
		if o.phase >= 0 {
			parent = o.phase
		}
		o.tr.record(o.op, parent, "mpc.round", o.last, now)
		o.ls.add("core.round_gap_ms", ms(now.Sub(o.last)))
		o.last = now
	case solver.KindPhaseEnd:
		if o.phase >= 0 {
			o.ls.add("core.phase_ms", ms(o.tr.end(o.phase)))
			o.phase = -1
		}
		o.last, o.lastPhase = now, now
	case solver.KindFinalPhase:
		o.tr.record(o.op, o.solve, "core.final_phase", o.lastPhase, now)
		o.ls.add("core.final_phase_ms", ms(now.Sub(o.lastPhase)))
	}
}

// certify is the pipeline's verify stage on the original graph: the cover
// must cover every edge, and the (lifted) duals must form a feasible
// certificate whose bound includes the forced weight.
func certify(g *graph.Graph, cover []bool, duals []float64, forced float64, exact bool) (weight, bound, ratio float64, err error) {
	if ok, e := verify.IsCover(g, cover); !ok {
		u, v := g.Edge(e)
		return 0, 0, 0, fmt.Errorf("edge (%d,%d) uncovered", u, v)
	}
	switch {
	case duals != nil:
		cert, err := verify.NewLiftedCertificate(g, cover, duals, forced)
		if err != nil {
			return 0, 0, 0, err
		}
		return cert.Weight, cert.Bound, cert.Ratio(), nil
	case exact:
		w := verify.CoverWeight(g, cover)
		return w, w, 1, nil
	default:
		return 0, 0, 0, fmt.Errorf("solver returned no certificate")
	}
}

// checkCover is the benchmark's own correctness check of one output,
// against the generated instance rather than anything the program built:
// the cover covers every edge, its weight is the reported one bit for bit,
// the certificate satisfies weight ≥ bound > 0, and pdfast's certified
// ratio is at most 2.
func checkCover(g *graph.Graph, algo string, cover []bool, weight, bound float64) error {
	if len(cover) != g.NumVertices() {
		return fmt.Errorf("cover has %d entries for %d vertices", len(cover), g.NumVertices())
	}
	if ok, e := verify.IsCover(g, cover); !ok {
		u, v := g.Edge(e)
		return fmt.Errorf("edge (%d,%d) uncovered", u, v)
	}
	if w := verify.CoverWeight(g, cover); math.Float64bits(w) != math.Float64bits(weight) {
		return fmt.Errorf("reported weight %v, cover weighs %v", weight, w)
	}
	if !(weight >= bound && bound > 0) {
		return fmt.Errorf("certificate breaks weight ≥ bound > 0 (weight %v, bound %v)", weight, bound)
	}
	// The same floating-point slack the pdfast fuzz harness allows.
	if algo == string(mwvc.AlgoPDFast) && weight > 2*bound*(1+verify.Tolerance) {
		return fmt.Errorf("pdfast certified ratio %v exceeds 2", weight/bound)
	}
	return nil
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// frac is a/b, 0 when b is 0.
func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// mix derives a seed from the workload seed, a label and an index
// (splitmix64 finalizer), so every instance and solver seed is a pure
// function of the seed passed to the benchmark.
func mix(seed, label, i uint64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + label<<32 + i + 1
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}
