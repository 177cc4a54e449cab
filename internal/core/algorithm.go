package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/centralized"
	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/rng"
	"repro/internal/solver"
)

// Message tags distinguishing record kinds within a round's payloads.
const (
	tagVertex uint64 = 1
	tagEdge   uint64 = 2
	tagResult uint64 = 3
	tagScalar uint64 = 4
)

// Labels for derived randomness. Partition and threshold draws are pure
// functions of (seed, label, phase, vertex[, iteration]), which is what lets
// the coupling experiments replay a phase with identical randomness. The
// compressed plan's group draws also take the split attempt, so a redraw
// after a split is a fresh partition.
const (
	labelPartition uint64 = 'P'
	labelGroup     uint64 = 'G'
	labelThreshold uint64 = 'T'
)

// noFreeze marks a vertex that stayed active through a local simulation.
const noFreeze = -1

// machScratch is a machine step's reusable working set: the
// per-destination counters and arena-backed message buffers of the scatter
// and result rounds, the decoded local instance, and the local-simulation
// arrays. Messages are staged straight into the machine's outgoing arena
// (count → Reserve → Alloc → fill), so the per-phase MPC rounds allocate
// nothing at steady state and only arena growth on the first phase.
type machScratch struct {
	vCnt, eCnt []int32    // per-destination record counts, then write cursors
	vBuf, eBuf [][]uint64 // per-destination Alloc'd message buffers
	edgeIDs    []int32    // co-located edges found by the count pass
	li         LocalInstance
	sim        SimScratch
}

// scratchPool lends a machScratch to each running machine step. Nothing in
// a machScratch outlives the step that uses it, so the pool only ever holds
// as many as ran at once (at most the cluster's worker count): one per
// machine would cost O(fleet²) words, since each scratch has an entry per
// destination machine.
type scratchPool struct {
	mu    sync.Mutex
	free  []*machScratch
	fleet int
}

func (sp *scratchPool) get() *machScratch {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if k := len(sp.free); k > 0 {
		sc := sp.free[k-1]
		sp.free = sp.free[:k-1]
		return sc
	}
	return &machScratch{
		vCnt: make([]int32, sp.fleet),
		eCnt: make([]int32, sp.fleet),
		vBuf: make([][]uint64, sp.fleet),
		eBuf: make([][]uint64, sp.fleet),
	}
}

func (sp *scratchPool) put(sc *machScratch) {
	sp.mu.Lock()
	sp.free = append(sp.free, sc)
	sp.mu.Unlock()
}

// roundPlan is the round schedule of a phase: the only thing the native
// and the round-compressed solvers do differently. Lines 2a–2k and Line 3
// are shared. The plan is consulted once per phase or per round, never
// inside a per-edge loop.
type roundPlan struct {
	// compressed selects the round-compressed schedule (RunCompressed):
	// the partition is drawn with labelGroup and a split attempt and split
	// until it fits gatherWords, the home machines piggyback their degree
	// counts on the scatter round (machine 0 checks them while it
	// simulates), and each phase costs 3 accounted rounds instead of 5.
	compressed bool
	// gatherWords bounds the vertex and co-located edge records one
	// partition class may gather into a machine (nil = MemoryWords(n)/2).
	gatherWords func(n int) int64
	// maxSplits bounds the group-count doublings before the run gives up.
	maxSplits int
}

// Run executes Algorithm 2 on g and returns the cover, the finalized dual
// weights, and the per-phase measurements. Each phase costs five accounted
// cluster rounds: degree aggregate, degree share, scatter, local
// simulation, collect. The context is checked between phases, between
// cluster rounds, and inside the final centralized phase, so a
// cancellation or deadline ends the solve promptly with ctx.Err().
func Run(ctx context.Context, g *graph.Graph, p Params) (*Result, error) {
	res, _, _, err := run(ctx, g, p, roundPlan{})
	return res, err
}

// RunCompressed executes Algorithm 2 on the round-compressed schedule:
// the same phases as Run at three accounted cluster rounds each (scatter,
// simulate, collect), plus one solver.KindCompress event per phase. The
// degree aggregate rides on the scatter round instead of two rounds of
// its own. Each phase samples V^high into p.NumMachines(d) groups and,
// while the largest group's records exceed gatherWords(n) words (nil =
// MemoryWords(n)/2), doubles the group count and redraws, at most
// maxSplits times; splits counts those redraws. If a phase still does not
// fit, the run stops and reports fallback with a nil Result, and the
// caller restarts on the native schedule.
func RunCompressed(ctx context.Context, g *graph.Graph, p Params, gatherWords func(n int) int64, maxSplits int) (res *Result, splits int, fallback bool, err error) {
	return run(ctx, g, p, roundPlan{compressed: true, gatherWords: gatherWords, maxSplits: maxSplits})
}

// run is the phase driver behind Run and RunCompressed.
func run(ctx context.Context, g *graph.Graph, p Params, plan roundPlan) (*Result, int, bool, error) {
	if err := p.Validate(); err != nil {
		return nil, 0, false, err
	}
	if g == nil {
		return nil, 0, false, errors.New("core: nil graph")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	n := g.NumVertices()
	mEdges := g.NumEdges()
	epFlat := g.EdgeEndpoints() // flat (u,v) pairs; epFlat[2e], epFlat[2e+1] = endpoints of e
	eps := p.Epsilon
	growth := 1 / (1 - eps)

	res := &Result{
		Cover: make([]bool, n),
		X:     make([]float64, mEdges),
	}
	if n == 0 {
		return res, 0, false, nil
	}

	// Algorithm state. frozenIncident[v] accumulates Σ_{e∋v frozen} x_e so
	// that w′(v) = w(v) − frozenIncident[v] (Line 2b). resDeg and
	// nonfrozenEdges are Line (2k)'s quantities; every edge freeze updates
	// them in place, so no phase recounts them.
	frozen := res.Cover
	xFinal := res.X
	edgeFrozen := make([]bool, mEdges)
	frozenIncident := make([]float64, n)
	resDeg := g.DegreesWithinMaskInto(make([]int, n), nil)
	nonfrozenEdges := int64(mEdges)

	// freezeEdge finalizes a nonfrozen edge at weight x.
	freezeEdge := func(e int, x float64) {
		edgeFrozen[e] = true
		xFinal[e] = x
		resDeg[epFlat[2*e]]--
		resDeg[epFlat[2*e+1]]--
		nonfrozenEdges--
	}
	// Line (2j) for one frozen vertex: its remaining nonfrozen edges
	// finalize at 0. The maintained residual degree skips the adjacency
	// walk when nothing is left to freeze.
	freezeRest := func(v graph.Vertex) {
		if resDeg[v] == 0 {
			return
		}
		for _, e := range g.IncidentEdges(v) {
			if !edgeFrozen[e] {
				freezeEdge(int(e), 0)
			}
		}
	}
	// Defensive freeze for a vertex whose residual weight has been exhausted
	// (mathematically prevented by Line 2i; guarded against float drift).
	zeroFreeze := func(v graph.Vertex) {
		frozen[v] = true
		freezeRest(v)
	}

	// Cluster sizing: the simulation uses m = √d machines per phase, but the
	// cluster also holds the input edges (round-robin), so it needs enough
	// machines that no home machine's share exceeds a quarter of its memory.
	memWords := p.MemoryWords(n)
	maxEdgesPerHome := memWords / (4 * mpc.EdgeRecordWords)
	if maxEdgesPerHome < 1 {
		return nil, 0, false, fmt.Errorf("core: machine memory %d words cannot hold any edges", memWords)
	}
	d0 := 2 * float64(nonfrozenEdges) / float64(n)
	mTotal := p.NumMachines(d0)
	if need := int((int64(mEdges) + maxEdgesPerHome - 1) / maxEdgesPerHome); need > mTotal {
		mTotal = need
	}
	if mTotal < 2 {
		mTotal = 2
	}
	// The per-phase degree aggregation is a single fan-in-M tree level, so
	// machine 0 receives 2·M words; cap the fleet so that always fits in a
	// quarter of its budget. The cap can only bind below the edge-holding
	// requirement when S² < 96·|E|, which Õ(n) memory always avoids.
	if maxFleet := int(memWords / 8); mTotal > maxFleet {
		if need := int((int64(mEdges) + maxEdgesPerHome - 1) / maxEdgesPerHome); need > maxFleet {
			return nil, 0, false, fmt.Errorf("core: memory %d words per machine cannot host both the input (%d machines needed) and the aggregation fan-in (max %d)", memWords, need, maxFleet)
		}
		mTotal = maxFleet
	}
	cluster, err := mpc.NewCluster(mpc.Config{
		Machines:    mTotal,
		MemoryWords: memWords,
		Parallelism: p.Parallelism,
	})
	if err != nil {
		return nil, 0, false, err
	}
	defer cluster.Close()

	maxPhases := p.MaxPhases
	if maxPhases == 0 {
		maxPhases = 64
	}
	// The native plan gathers whatever the partition produces; only the
	// compressed plan prices its groups against a budget.
	gatherBudget := int64(math.MaxInt64)
	if plan.compressed {
		gatherBudget = memWords / 2
		if plan.gatherWords != nil {
			gatherBudget = plan.gatherWords(n)
		}
	}

	// Observability: dualSum accumulates Σ x_e over finalized edges (the raw
	// dual total that FeasibleDual later rescales into a certified bound);
	// curPhase scopes round events to the running phase (-1 outside phases).
	obs := p.Observer
	dualSum := 0.0
	curPhase := -1
	// step executes one accounted cluster round with a context check before
	// it and a KindRound event after it, so the number of round events equals
	// Result.Rounds exactly.
	step := func(fn mpc.StepFunc) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := cluster.Round(fn); err != nil {
			return err
		}
		solver.Emit(obs, solver.Event{
			Kind:        solver.KindRound,
			Phase:       curPhase,
			Round:       cluster.Metrics().Rounds,
			ActiveEdges: nonfrozenEdges,
			DualBound:   dualSum,
		})
		return nil
	}

	// Reused per-phase scratch. The n-sized arrays are carved out of two
	// backing allocations (one per element type).
	f64Scratch := make([]float64, 2*n)
	wres, yMPC := f64Scratch[:n:n], f64Scratch[n:]
	i32Scratch := make([]int32, 3*n)
	machineOf, freezeIterShared, localIdx := i32Scratch[:n:n], i32Scratch[n:2*n:2*n], i32Scratch[2*n:]
	for v := range localIdx {
		localIdx[v] = -1
	}
	high := make([]bool, n)
	xPhase := make([]float64, mEdges)
	var highList []graph.Vertex
	var highEdges []int32
	var pow []float64
	var newlyFrozen []graph.Vertex
	machineWords := make([]int64, mTotal)
	localEdgeCount := make([]int64, mTotal)

	// Communication and simulation scratch, reused across all phases and
	// rounds so the steady-state message plane allocates nothing: staging
	// buffers grow once, then recycle.
	scratch := &scratchPool{fleet: mTotal}
	// localIdx (carved from i32Scratch above) maps a global vertex id to its
	// index on the simulation machine that owns it this phase (-1 otherwise).
	// The partition assigns each vertex to exactly one machine and the
	// scatter only ships co-located edges, so concurrent machines touch
	// disjoint entries; each machine resets its own entries after its
	// simulation.

	phase := 0
	stalls := 0
	splits := 0
	for ; ; phase++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, false, err
		}
		curPhase = phase
		edgesBefore := nonfrozenEdges
		d := 2 * float64(nonfrozenEdges) / float64(n)
		if d <= p.SwitchThreshold(n) {
			break
		}
		// Stall fallback: if sampled phases stop making progress (which the
		// ablations deliberately provoke — e.g. uniform initialization
		// resets the duals every phase and can never reach any threshold
		// within I iterations), hand the residual instance to the final
		// centralized phase instead of spinning. The memory charge there
		// still enforces that the fallback is legitimate.
		if stalls >= 3 {
			break
		}
		if phase >= maxPhases {
			return nil, 0, false, fmt.Errorf("core: no convergence after %d phases (d=%.1f)", phase, d)
		}

		// Lines (2a)/(2b): classify nonfrozen vertices and compute residual
		// weights for V^high.
		dGamma := math.Pow(d, p.HighDegreeExponent)
		if p.DisableInactiveSplit {
			dGamma = 1 // every nonfrozen vertex with an edge is "high"
		}
		highList = highList[:0]
		numInactive := 0
		numNonfrozen := 0
		for v := 0; v < n; v++ {
			high[v] = false
			if frozen[v] {
				continue
			}
			numNonfrozen++
			if resDeg[v] == 0 {
				continue
			}
			w := g.Weight(graph.Vertex(v)) - frozenIncident[v]
			if w <= 1e-12*g.Weight(graph.Vertex(v)) {
				zeroFreeze(graph.Vertex(v))
				continue
			}
			if float64(resDeg[v]) >= dGamma {
				high[v] = true
				wres[v] = w
				highList = append(highList, graph.Vertex(v))
			} else {
				numInactive++
			}
		}
		if len(highList) == 0 {
			// Cannot happen while d > 1 (some vertex has degree ≥ d ≥ d^γ),
			// but guard so a degenerate configuration falls through to the
			// final centralized phase instead of looping.
			break
		}

		// Lines (2e)/(2f): m = √d simulation machines, and the partition of
		// V^high over them, priced by the vertex records each machine will
		// gather. The co-located edge records are priced in the Line (2c)
		// pass below, so pricing costs no extra walk over the edge array.
		machines := p.NumMachines(d)
		if machines < 1 {
			machines = 1
		}
		if machines > mTotal {
			machines = mTotal
		}
		plan.partition(p.Seed, phase, 0, machines, highList, machineOf, machineWords)

		// Line (2c): initial duals on E[V^high] (degree-aware, or the
		// uniform-init ablation). The degree-aware ratios w′(v)/d(v) are
		// computed once per vertex into yMPC, which is free until Line (2h)
		// resets it. E[V^high] never outgrows the nonfrozen edges, so
		// highEdges is sized once, at the first phase.
		if highEdges == nil {
			highEdges = make([]int32, 0, nonfrozenEdges)
		}
		highEdges = highEdges[:0]
		uniformBase := 0.0
		ratio := yMPC
		if p.UniformInit {
			wmin := math.Inf(1)
			for _, v := range highList {
				wmin = math.Min(wmin, wres[v])
			}
			uniformBase = wmin / float64(n)
		} else {
			for _, v := range highList {
				ratio[v] = wres[v] / float64(resDeg[v])
			}
		}
		for e := 0; e < mEdges; e++ {
			if edgeFrozen[e] {
				continue
			}
			u, v := epFlat[2*e], epFlat[2*e+1]
			if !high[u] || !high[v] {
				continue
			}
			highEdges = append(highEdges, int32(e))
			if p.UniformInit {
				xPhase[e] = uniformBase
			} else {
				xPhase[e] = math.Min(ratio[u], ratio[v])
			}
			if machineOf[u] == machineOf[v] {
				machineWords[machineOf[u]] += mpc.EdgeRecordWords
			}
		}

		// Memory precheck: while the largest partition class would not fit
		// the gather budget (by default half the per-machine memory; the
		// rest is headroom for message framing, the degree fan-in and result
		// staging), double the machine count and redraw. If that cannot
		// make it fit, give up before any message is staged.
		for attempt := 0; ; {
			if err := ctx.Err(); err != nil {
				return nil, 0, false, err
			}
			if slices.Max(machineWords[:machines]) <= gatherBudget {
				break
			}
			if attempt >= plan.maxSplits || machines >= mTotal {
				return nil, splits, true, nil
			}
			machines = min(2*machines, mTotal)
			attempt++
			splits++
			plan.partition(p.Seed, phase, attempt, machines, highList, machineOf, machineWords)
			for _, e := range highEdges {
				u, v := epFlat[2*e], epFlat[2*e+1]
				if machineOf[u] == machineOf[v] {
					machineWords[machineOf[u]] += mpc.EdgeRecordWords
				}
			}
		}

		iters := p.PhaseIterations(machines, eps)
		if iters < 1 {
			iters = 1
		}
		solver.Emit(obs, solver.Event{
			Kind:        solver.KindPhaseStart,
			Phase:       phase,
			Round:       cluster.Metrics().Rounds,
			ActiveEdges: nonfrozenEdges,
			DualBound:   dualSum,
			Degree:      d,
			Machines:    machines,
			Iterations:  iters,
		})

		// Line (2d): thresholds are a pure function of (seed, phase, v, t).
		lo, hi := 1-4*eps, 1-2*eps
		threshold := func(v graph.Vertex, t int) float64 {
			return rng.UniformAt(p.Seed, lo, hi, labelThreshold, uint64(phase), uint64(v), uint64(t))
		}
		if p.FixedThresholds {
			fixed := 1 - 3*eps
			threshold = func(graph.Vertex, int) float64 { return fixed }
		}

		// ---- MPC execution of the phase ----
		cluster.ResetResident()

		biasCoeff := p.BiasCoefficient
		if p.DisableBias {
			biasCoeff = 0
		}

		// The average residual degree is computed *through the cluster*:
		// each home machine counts its nonfrozen edges and a single fan-in-M
		// tree level (the [GSZ11] O(1)-round aggregation primitive) sums the
		// counts at machine 0, which checks them against the driver's own
		// bookkeeping, so the simulated data path is load-bearing, not
		// decorative. The native plan spends two rounds on it (A0 aggregate,
		// A1 share) before the scatter; the compressed plan piggybacks the
		// counts on the scatter and machine 0 checks them while it
		// simulates.
		if !plan.compressed {
			err := step(func(mach *mpc.Machine) error {
				id := mach.ID()
				cnt := uint64(0)
				for e := id; e < mEdges; e += mTotal {
					if !edgeFrozen[e] {
						cnt++
					}
				}
				return mach.Send(0, []uint64{tagScalar, cnt})
			})
			if err != nil {
				return nil, 0, false, fmt.Errorf("core: phase %d degree aggregation: %w", phase, err)
			}
			err = step(func(mach *mpc.Machine) error {
				if mach.ID() != 0 {
					return nil
				}
				total, err := sumDegreeReports(mach.Inbox(), mTotal, nonfrozenEdges)
				if err != nil {
					return err
				}
				dv := 2 * float64(total) / float64(n)
				for dst := 0; dst < mTotal; dst++ {
					if err := mach.Send(dst, []uint64{tagScalar, mpc.PutFloat(dv)}); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return nil, 0, false, fmt.Errorf("core: phase %d degree share: %w", phase, err)
			}
		}

		// Scatter: home machines route co-located induced edges and vertex
		// records to the owning simulation machine (native: after checking
		// the shared degree; compressed: alongside their degree report).
		dNow := 2 * float64(nonfrozenEdges) / float64(n)
		err := step(func(mach *mpc.Machine) error {
			id := mach.ID()
			if !plan.compressed {
				sawScalar := false
				for _, msg := range mach.Inbox() {
					if len(msg.Data) == 2 && msg.Data[0] == tagScalar {
						if got := mpc.GetFloat(msg.Data[1]); math.Abs(got-dNow) > 1e-9*dNow {
							return fmt.Errorf("core: machine %d received d=%v, driver has %v", id, got, dNow)
						}
						sawScalar = true
					}
				}
				if !sawScalar {
					return fmt.Errorf("core: machine %d missing the shared average degree", id)
				}
			}
			sc := scratch.get()
			defer scratch.put(sc)
			vCnt, eCnt := sc.vCnt, sc.eCnt
			vBuf, eBuf := sc.vBuf, sc.eBuf
			// Count records per destination, reserve the total arena volume,
			// then stage each destination's message in place — no
			// intermediate buffers, no copies.
			for dst := 0; dst < machines; dst++ {
				vCnt[dst] = 0
				eCnt[dst] = 0
			}
			for v := id; v < n; v += mTotal {
				if high[v] {
					vCnt[machineOf[v]]++
				}
			}
			homeNonfrozen := uint64(0)
			sc.edgeIDs = sc.edgeIDs[:0]
			for e := id; e < mEdges; e += mTotal {
				if edgeFrozen[e] {
					continue
				}
				homeNonfrozen++
				u, v := epFlat[2*e], epFlat[2*e+1]
				if high[u] && high[v] && machineOf[u] == machineOf[v] {
					eCnt[machineOf[u]]++
					sc.edgeIDs = append(sc.edgeIDs, int32(e))
				}
			}
			total := int64(0)
			for dst := 0; dst < machines; dst++ {
				if vCnt[dst] > 0 {
					total += 1 + int64(vCnt[dst])*mpc.VertexRecordWords
				}
				if eCnt[dst] > 0 {
					total += 1 + int64(eCnt[dst])*mpc.EdgeRecordWords
				}
			}
			if plan.compressed {
				total += 2 // the degree report to machine 0
			}
			mach.Reserve(total)
			if plan.compressed {
				if err := mach.Send(0, []uint64{tagScalar, homeNonfrozen}); err != nil {
					return err
				}
			}
			for dst := 0; dst < machines; dst++ {
				if vCnt[dst] > 0 {
					buf, err := mach.Alloc(dst, 1+int(vCnt[dst])*mpc.VertexRecordWords)
					if err != nil {
						return err
					}
					buf[0] = tagVertex
					vBuf[dst] = buf[1:]
				}
				if eCnt[dst] > 0 {
					buf, err := mach.Alloc(dst, 1+int(eCnt[dst])*mpc.EdgeRecordWords)
					if err != nil {
						return err
					}
					buf[0] = tagEdge
					eBuf[dst] = buf[1:]
				}
				vCnt[dst] = 0 // reuse as write cursor
				eCnt[dst] = 0
			}
			for v := id; v < n; v += mTotal {
				if !high[v] {
					continue
				}
				dst := machineOf[v]
				mpc.SetVertexRecord(vBuf[dst], int(vCnt[dst]), int32(v), wres[v])
				vCnt[dst]++
			}
			for _, e := range sc.edgeIDs {
				u, v := epFlat[2*e], epFlat[2*e+1]
				dst := machineOf[u]
				mpc.SetEdgeRecord(eBuf[dst], int(eCnt[dst]), u, v, xPhase[e])
				eCnt[dst]++
			}
			return nil
		})
		if err != nil {
			return nil, 0, false, fmt.Errorf("core: phase %d scatter: %w", phase, err)
		}

		// Local simulation: each simulation machine materializes its induced
		// subgraph (charged against its memory budget — this is the Lemma
		// 4.1 constraint), runs Lines (2g i–iii), and routes the freeze
		// results to each vertex's home machine.
		for i := range localEdgeCount {
			localEdgeCount[i] = 0
		}
		err = step(func(mach *mpc.Machine) error {
			id := mach.ID()
			inbox := mach.Inbox()
			if plan.compressed && id == 0 {
				if _, err := sumDegreeReports(inbox, mTotal, nonfrozenEdges); err != nil {
					return err
				}
			}
			if id >= machines {
				for _, msg := range inbox {
					if len(msg.Data) == 0 || msg.Data[0] != tagScalar {
						return fmt.Errorf("core: non-simulation machine %d received records", id)
					}
				}
				return nil
			}
			sc := scratch.get()
			defer scratch.put(sc)
			li := &sc.li
			li.Reset()
			nV, nE := 0, 0
			for _, msg := range inbox {
				if len(msg.Data) == 0 {
					continue
				}
				switch msg.Data[0] {
				case tagVertex:
					nV += (len(msg.Data) - 1) / mpc.VertexRecordWords
				case tagEdge:
					nE += (len(msg.Data) - 1) / mpc.EdgeRecordWords
				}
			}
			li.Grow(nV, nE)
			// localIdx is shared across machines but the partition makes the
			// writes disjoint: only this machine's own vertices are indexed,
			// and they are reset below before the step returns.
			for _, msg := range inbox {
				if len(msg.Data) == 0 || msg.Data[0] != tagVertex {
					continue
				}
				body := msg.Data[1:]
				cnt, err := mpc.CheckRecordCount(body, mpc.VertexRecordWords)
				if err != nil {
					return err
				}
				for i := 0; i < cnt; i++ {
					v, w := mpc.DecodeVertexRecord(body, i)
					localIdx[v] = int32(len(li.VertexIDs))
					li.VertexIDs = append(li.VertexIDs, v)
					li.ResWeight = append(li.ResWeight, w)
				}
			}
			for _, msg := range inbox {
				if len(msg.Data) == 0 || msg.Data[0] != tagEdge {
					continue
				}
				body := msg.Data[1:]
				cnt, err := mpc.CheckRecordCount(body, mpc.EdgeRecordWords)
				if err != nil {
					return err
				}
				for i := 0; i < cnt; i++ {
					u, v, x0 := mpc.DecodeEdgeRecord(body, i)
					lu, lv := localIdx[u], localIdx[v]
					if lu < 0 || lv < 0 {
						return fmt.Errorf("core: machine %d received edge (%d,%d) without both endpoints", id, u, v)
					}
					li.Edges = append(li.Edges, [2]int32{lu, lv})
					li.X0 = append(li.X0, x0)
				}
			}
			if err := mach.Charge(li.Words()); err != nil {
				return err
			}
			localEdgeCount[id] = int64(len(li.Edges))
			freeze := RunLocalSim(li, machines, iters, eps, biasCoeff, p.BiasGrowth, threshold, &sc.sim)
			// Stage the freeze results per home machine, reusing the scatter
			// counters/buffers (count → Reserve → Alloc → fill, as above).
			rCnt, rBuf := sc.vCnt, sc.vBuf
			for dst := 0; dst < mTotal; dst++ {
				rCnt[dst] = 0
			}
			for _, v := range li.VertexIDs {
				rCnt[int(v)%mTotal]++
			}
			total := int64(0)
			for dst := 0; dst < mTotal; dst++ {
				if rCnt[dst] > 0 {
					total += 1 + int64(rCnt[dst])*mpc.ResultRecordWords
				}
			}
			mach.Reserve(total)
			for dst := 0; dst < mTotal; dst++ {
				if rCnt[dst] > 0 {
					buf, err := mach.Alloc(dst, 1+int(rCnt[dst])*mpc.ResultRecordWords)
					if err != nil {
						return err
					}
					buf[0] = tagResult
					rBuf[dst] = buf[1:]
				}
				rCnt[dst] = 0 // reuse as write cursor
			}
			for i, v := range li.VertexIDs {
				home := int(v) % mTotal
				mpc.SetResultRecord(rBuf[home], int(rCnt[home]), v, freeze[i])
				rCnt[home]++
				localIdx[v] = -1
			}
			return nil
		})
		if err != nil {
			return nil, 0, false, fmt.Errorf("core: phase %d local simulation: %w", phase, err)
		}

		// Collect: home machines record the freeze iteration of their
		// vertices. Writes are disjoint by construction (one home per
		// vertex), so the shared slice is race-free.
		for _, v := range highList {
			freezeIterShared[v] = noFreeze
		}
		err = step(func(mach *mpc.Machine) error {
			for _, msg := range mach.Inbox() {
				if len(msg.Data) == 0 || msg.Data[0] != tagResult {
					return fmt.Errorf("core: machine %d: unexpected tag in collect round", mach.ID())
				}
				body := msg.Data[1:]
				cnt, err := mpc.CheckRecordCount(body, mpc.ResultRecordWords)
				if err != nil {
					return err
				}
				for i := 0; i < cnt; i++ {
					v, fi := mpc.DecodeResultRecord(body, i)
					if int(v)%mTotal != mach.ID() {
						return fmt.Errorf("core: result for vertex %d misrouted to machine %d", v, mach.ID())
					}
					freezeIterShared[v] = int32(fi)
				}
			}
			return nil
		})
		if err != nil {
			return nil, 0, false, fmt.Errorf("core: phase %d collect: %w", phase, err)
		}

		// Optional coupling capture — must happen before Line (2h) rescales
		// xPhase in place.
		if p.CollectCoupling {
			res.Coupling = append(res.Coupling, captureCoupling(phase, machines, iters, highList, highEdges, epFlat, wres, machineOf, freezeIterShared, xPhase))
		}

		// Line (2h): every edge of E[V^high] gets the weight implied by the
		// earliest endpoint freeze (t′ = I when both stayed active).
		if cap(pow) < iters+1 {
			pow = make([]float64, iters+1)
		} else {
			pow = pow[:iters+1]
		}
		pow[0] = 1
		for t := 1; t <= iters; t++ {
			pow[t] = pow[t-1] * growth
		}
		fiOf := func(v graph.Vertex) int {
			if fi := freezeIterShared[v]; fi >= 0 {
				return int(fi)
			}
			return iters
		}
		// The Line (2i) per-vertex sums accumulate in the same walk that
		// applies the (2h) growth factors.
		for _, v := range highList {
			yMPC[v] = 0
		}
		for _, e := range highEdges {
			u, v := epFlat[2*e], epFlat[2*e+1]
			t := fiOf(u)
			if tv := fiOf(v); tv < t {
				t = tv
			}
			x := xPhase[e] * pow[t]
			xPhase[e] = x
			yMPC[u] += x
			yMPC[v] += x
		}

		// Freeze set 1: vertices frozen by their local simulation.
		newlyFrozen = newlyFrozen[:0]
		for _, v := range highList {
			if freezeIterShared[v] >= 0 {
				newlyFrozen = append(newlyFrozen, v)
			}
		}
		frozenAtSim := len(newlyFrozen)

		// Line (2i): vertices whose incident E[V^high] weight already
		// exceeds their residual weight freeze too, so residuals stay
		// nonnegative in later phases.
		frozenAt2i := 0
		for _, v := range highList {
			if freezeIterShared[v] < 0 && yMPC[v] >= wres[v]*(1-1e-12) {
				newlyFrozen = append(newlyFrozen, v)
				frozenAt2i++
			}
		}
		for _, v := range newlyFrozen {
			frozen[v] = true
		}

		// Finalize edges: E[V^high] edges with a frozen endpoint keep their
		// Line (2h) weight; Line (2j) freezes the rest of a frozen vertex's
		// edges at 0. Each freeze keeps Line (2k)'s residual degrees and
		// nonfrozen count current.
		for _, e := range highEdges {
			u, v := epFlat[2*e], epFlat[2*e+1]
			if frozen[u] || frozen[v] {
				frozenIncident[u] += xPhase[e]
				frozenIncident[v] += xPhase[e]
				dualSum += xPhase[e]
				freezeEdge(int(e), xPhase[e])
			}
		}
		for _, v := range newlyFrozen {
			freezeRest(v)
		}

		if float64(nonfrozenEdges) > 0.99*float64(edgesBefore) {
			stalls++
		} else {
			stalls = 0
		}

		maxLocalEdges, totalLocalEdges := int64(0), int64(0)
		for _, c := range localEdgeCount {
			totalLocalEdges += c
			if c > maxLocalEdges {
				maxLocalEdges = c
			}
		}
		res.PhaseStats = append(res.PhaseStats, PhaseStat{
			Phase:               phase,
			AvgDegree:           d,
			NumNonfrozen:        numNonfrozen,
			NumHigh:             len(highList),
			NumInactive:         numInactive,
			Machines:            machines,
			Iterations:          iters,
			MaxMachineEdges:     int(maxLocalEdges),
			TotalMachineEdges:   totalLocalEdges,
			MaxMachineWords:     cluster.Metrics().MaxResidentWords,
			EdgesBefore:         edgesBefore,
			EdgesAfter:          nonfrozenEdges,
			DecayBound:          float64(n)*d*math.Pow(1-eps, float64(iters)) + float64(n)*dGamma,
			NewlyFrozenVertices: frozenAtSim + frozenAt2i,
			FrozenAtLine2i:      frozenAt2i,
		})
		end := solver.Event{
			Kind:        solver.KindPhaseEnd,
			Phase:       phase,
			Round:       cluster.Metrics().Rounds,
			ActiveEdges: nonfrozenEdges,
			DualBound:   dualSum,
			Degree:      d,
			Machines:    machines,
			Iterations:  iters,
		}
		if plan.compressed {
			compressed := end
			compressed.Kind = solver.KindCompress
			solver.Emit(obs, compressed)
		}
		solver.Emit(obs, end)
	}
	curPhase = -1
	res.Phases = phase

	// Line (3): the residual instance moves to one machine (the gather is
	// one more round, and the memory charge enforces that it fits) and the
	// centralized algorithm finishes it. The phase scratch high and wres
	// are free now and hold the active mask and residual weights.
	active, wresAll := high, wres
	numActive := 0
	for v := 0; v < n; v++ {
		active[v] = false
		if frozen[v] {
			continue
		}
		w := g.Weight(graph.Vertex(v)) - frozenIncident[v]
		if w <= 1e-12*g.Weight(graph.Vertex(v)) {
			zeroFreeze(graph.Vertex(v))
			continue
		}
		active[v] = true
		wresAll[v] = w
		numActive++
	}
	finalEdges := nonfrozenEdges
	res.FinalPhaseEdges = finalEdges
	cluster.ResetResident()
	err = step(func(mach *mpc.Machine) error {
		if mach.ID() == 0 {
			return mach.Charge(finalEdges*mpc.EdgeRecordWords + int64(numActive)*mpc.VertexRecordWords)
		}
		return nil
	})
	if err != nil {
		return nil, 0, false, fmt.Errorf("core: final gather: %w", err)
	}

	// The LOCAL algorithm runs inside one machine, so its iterations cost no
	// additional communication rounds. The nonfrozen edges are exactly those
	// with both endpoints active, so finalPhase hands back each of their
	// duals, in ascending edge order.
	finalIters, err := finalPhase(ctx, g, active, wresAll, p, phase, frozen, func(e graph.EdgeID, x float64) {
		xFinal[e] = x
		dualSum += x
	})
	if err != nil {
		return nil, 0, false, err
	}
	res.FinalPhaseIterations = finalIters
	solver.Emit(obs, solver.Event{
		Kind:       solver.KindFinalPhase,
		Phase:      -1,
		Round:      cluster.Metrics().Rounds,
		DualBound:  dualSum,
		Iterations: finalIters,
	})

	res.ClusterMetrics = cluster.Metrics()
	res.Rounds = res.ClusterMetrics.Rounds
	return res, splits, false, nil
}

// finalPhase runs Line (3): Algorithm 1 on the residual instance, i.e. the
// vertices with active[v] (residual weights wres[v]) and the edges of g
// with both endpoints active, with the thresholds of the phase after the
// last sampled one. It sets cover[v] for every vertex the run freezes,
// calls final(e, x_e) for every residual edge in ascending edge order, and
// returns the iteration count.
//
// When some vertex is inactive the run sees only the residual, compacted
// by a monotone relabelling: active vertices are numbered in ascending
// order, so the residual's lexicographic edge ids keep g's edge order and
// its sorted adjacency rows keep g's row order. Algorithm 1 then performs
// the same floating-point operations in the same order as on g behind the
// active mask. The copy costs O(n + Σ_{v active} d(v)) once, and each
// iteration costs O(residual) instead of O(n + m).
func finalPhase(ctx context.Context, g *graph.Graph, active []bool, wres []float64, p Params, phase int, cover []bool, final func(e graph.EdgeID, x float64)) (int, error) {
	eps := p.Epsilon
	opts := centralized.Options{Epsilon: eps, Init: centralized.InitDegreeAware}
	if p.UniformInit {
		opts.Init = centralized.InitUniform
	}
	var toOrig []graph.Vertex
	if p.FixedThresholds {
		opts.Threshold = centralized.FixedThreshold(eps)
	} else {
		lo, hi := 1-4*eps, 1-2*eps
		fp := uint64(phase)
		opts.Threshold = func(v graph.Vertex, t int) float64 {
			if toOrig != nil {
				v = toOrig[v]
			}
			return rng.UniformAt(p.Seed, lo, hi, labelThreshold, fp, uint64(v), uint64(t))
		}
	}

	n := g.NumVertices()
	numActive := 0
	for _, a := range active {
		if a {
			numActive++
		}
	}
	// Nothing has frozen: the residual is g itself, and toOrig and
	// resEdges stay nil (the identity).
	inst := centralized.Instance{G: g, Weights: wres}
	var resEdges []graph.EdgeID
	if numActive < n {
		localOf := make([]graph.Vertex, n)
		weights := make([]float64, numActive)
		toOrig = make([]graph.Vertex, 0, numActive)
		for v, a := range active {
			if a {
				localOf[v] = graph.Vertex(len(toOrig))
				weights[len(toOrig)] = wres[v]
				toOrig = append(toOrig, graph.Vertex(v))
			}
		}
		// Edge ids are lexicographic in (min, max) endpoint and adjacency
		// rows are sorted, so walking the active rows upward collects the
		// residual edges in ascending id order.
		var local [][2]graph.Vertex
		for i, u := range toOrig {
			ids := g.IncidentEdges(u)
			for j, v := range g.Neighbors(u) {
				if v > u && active[v] {
					resEdges = append(resEdges, ids[j])
					local = append(local, [2]graph.Vertex{graph.Vertex(i), localOf[v]})
				}
			}
		}
		rg, err := graph.FromEdgeList(numActive, local, weights)
		if err != nil {
			return 0, fmt.Errorf("core: final phase residual: %w", err)
		}
		inst = centralized.Instance{G: rg}
		if p.UniformInit && len(resEdges) > 0 {
			// InitUniform's base is w_min/n for the input's n, not the
			// residual's vertex count.
			base := slices.Min(weights) / float64(n)
			inst.X0 = make([]float64, len(resEdges))
			for i := range inst.X0 {
				inst.X0[i] = base
			}
		}
	}
	cres, err := centralized.Run(ctx, inst, opts)
	if err != nil {
		return 0, fmt.Errorf("core: final centralized phase: %w", err)
	}
	for i, c := range cres.Cover {
		if !c {
			continue
		}
		v := graph.Vertex(i)
		if toOrig != nil {
			v = toOrig[i]
		}
		cover[v] = true
	}
	for i, x := range cres.X {
		e := graph.EdgeID(i)
		if resEdges != nil {
			e = resEdges[i]
		}
		final(e, x)
	}
	return cres.Iterations, nil
}

// partition draws the machine of every V^high vertex and prices each
// machine's vertex records into words[:machines]. The native plan draws
// once per phase with labelPartition; the compressed plan draws with
// labelGroup and the split attempt.
func (plan roundPlan) partition(seed uint64, phase, attempt, machines int, highList []graph.Vertex, machineOf []int32, words []int64) {
	clear(words[:machines])
	if plan.compressed {
		for _, v := range highList {
			m := int32(rng.ChooseAt(seed, machines, labelGroup, uint64(phase), uint64(attempt), uint64(v)))
			machineOf[v] = m
			words[m] += mpc.VertexRecordWords
		}
		return
	}
	for _, v := range highList {
		m := int32(rng.ChooseAt(seed, machines, labelPartition, uint64(phase), uint64(v)))
		machineOf[v] = m
		words[m] += mpc.VertexRecordWords
	}
}

// sumDegreeReports is machine 0's side of the degree aggregate: it sums
// the nonfrozen-edge counts of all `fleet` home machines and checks the
// total against the driver's own count.
func sumDegreeReports(inbox []mpc.Message, fleet int, want int64) (uint64, error) {
	total := uint64(0)
	seen := 0
	for _, msg := range inbox {
		if len(msg.Data) == 2 && msg.Data[0] == tagScalar {
			total += msg.Data[1]
			seen++
		}
	}
	if seen != fleet {
		return 0, fmt.Errorf("core: machine 0 received %d degree reports, want %d", seen, fleet)
	}
	if total != uint64(want) {
		return 0, fmt.Errorf("core: aggregated %d nonfrozen edges, driver has %d", total, want)
	}
	return total, nil
}

// captureCoupling copies one phase's partition, initial duals and freeze
// iterations for the Lemma 4.6 replay (AnalyzeCoupling).
func captureCoupling(phase, machines, iters int, highList []graph.Vertex, highEdges []int32, epFlat []graph.Vertex,
	wres []float64, machineOf, freezeIter []int32, xPhase []float64) CouplingPhase {
	cp := CouplingPhase{
		Phase:          phase,
		Machines:       machines,
		Iterations:     iters,
		High:           append([]graph.Vertex(nil), highList...),
		ResidualWeight: make([]float64, len(highList)),
		MachineOf:      make([]int, len(highList)),
		FreezeIter:     make([]int, len(highList)),
		Edges:          make([][2]int32, len(highEdges)),
		X0:             make([]float64, len(highEdges)),
	}
	for i, v := range highList {
		cp.ResidualWeight[i] = wres[v]
		cp.MachineOf[i] = int(machineOf[v])
		cp.FreezeIter[i] = int(freezeIter[v])
	}
	// highList is ascending, so an endpoint's index is a binary search.
	indexOf := func(v graph.Vertex) int32 {
		i, _ := slices.BinarySearch(highList, v)
		return int32(i)
	}
	for i, e := range highEdges {
		u, v := epFlat[2*e], epFlat[2*e+1]
		cp.Edges[i] = [2]int32{indexOf(u), indexOf(v)}
		cp.X0[i] = xPhase[e]
	}
	return cp
}
