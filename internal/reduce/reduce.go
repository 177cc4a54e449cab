// Package reduce implements weighted kernelization for minimum-weight
// vertex cover: reduction rules that shrink an instance before any solver
// runs, plus a replayable trace that lifts a kernel cover back to a cover
// of the original graph with exact weight accounting.
//
// Four rules run to a fixpoint over a worklist, all operating directly on
// the immutable CSR graph with flat per-vertex state (a flags byte, residual
// degrees, a pivot stamp) — no mutable graph copy is ever built:
//
//   - isolated: a vertex with no uncovered incident edge is never needed.
//   - pendant (weighted degree-1): a degree-1 vertex u with neighbor v and
//     w(u) ≥ w(v) lets v join the cover and u leave the instance.
//   - domination (weighted): for an edge (u, v) with N[v] ⊆ N[u] and
//     w(u) ≤ w(v), some optimal cover contains u.
//   - neighborhood weight: if w(v) ≥ Σ w(N(v)), taking all of N(v) is never
//     worse than taking v, so N(v) joins the cover and v leaves.
//
// Every rule preserves the optimum exactly: OPT(G) = ForcedWeight +
// OPT(kernel), so the forced weight is a sound additive term for both the
// lifted cover weight (primal) and any lower bound certified on the kernel
// (dual) — certified ratios survive lifting. DESIGN.md §"Kernelization"
// carries the per-rule soundness arguments.
package reduce

import (
	"context"
	"math"

	"repro/internal/graph"
)

// Stats reports what one reduction pass did; it travels through
// solver.Outcome and mwvc.Solution so every layer can account for the
// kernelization stage honestly.
type Stats struct {
	// OriginalVertices and OriginalEdges are the instance size before
	// reduction; KernelVertices and KernelEdges after.
	OriginalVertices int `json:"original_vertices"`
	OriginalEdges    int `json:"original_edges"`
	KernelVertices   int `json:"kernel_vertices"`
	KernelEdges      int `json:"kernel_edges"`

	// Per-rule application counts (cascaded applications included).
	Isolated           int `json:"isolated,omitempty"`
	Pendant            int `json:"pendant,omitempty"`
	Domination         int `json:"domination,omitempty"`
	NeighborhoodWeight int `json:"neighborhood_weight,omitempty"`

	// ForcedVertices and ForcedWeight describe the vertices the rules
	// committed to the cover; ForcedWeight adds exactly to both the lifted
	// cover weight and the kernel's certified lower bound.
	ForcedVertices int     `json:"forced_vertices,omitempty"`
	ForcedWeight   float64 `json:"forced_weight,omitempty"`

	// ReduceNS is the wall-clock cost of the reduction stage, filled by the
	// pipeline that invoked it.
	ReduceNS int64 `json:"reduce_ns,omitempty"`
}

// Trace records how a graph was reduced, replayably: Lift reconstructs a
// cover of the original graph from any cover of the kernel, and LiftDuals
// re-indexes a kernel dual vector onto the original edge ids. A nil Trace
// (returned when nothing reduced) means the kernel is the original graph.
type Trace struct {
	orig    *graph.Graph
	kernel  *graph.Graph
	forced  []graph.Vertex // original ids committed to the cover
	forcedW float64
	toOrig  []graph.Vertex // kernel vertex id → original vertex id
}

// ForcedWeight returns the total weight of the vertices the reduction
// committed to the cover.
func (t *Trace) ForcedWeight() float64 { return t.forcedW }

// Lift maps a cover of the kernel back to a cover of the original graph:
// the forced vertices plus the kernel cover translated through the vertex
// mapping. The returned forced weight is the exact additive difference
// between the kernel cover's weight and the lifted cover's weight, and is
// likewise a sound additive term for the kernel's dual lower bound.
func (t *Trace) Lift(kernelCover []bool) (cover []bool, forcedWeight float64) {
	if len(kernelCover) != len(t.toOrig) {
		panic("reduce: Lift cover length does not match kernel")
	}
	cover = make([]bool, t.orig.NumVertices())
	for _, v := range t.forced {
		cover[v] = true
	}
	for i, in := range kernelCover {
		if in {
			cover[t.toOrig[i]] = true
		}
	}
	return cover, t.forcedW
}

// Restrict inverts Lift on the kernel coordinates: it projects a cover of
// the original graph down to the kernel's vertex ids, dropping the forced
// and eliminated vertices. Restrict(Lift(c)) == c for every kernel cover c,
// which lets tests and tools audit exactly what a downstream stage (e.g.
// the anytime improvement) did to the kernel cover after lifting.
func (t *Trace) Restrict(cover []bool) []bool {
	if len(cover) != t.orig.NumVertices() {
		panic("reduce: Restrict cover length does not match original")
	}
	out := make([]bool, len(t.toOrig))
	for i, v := range t.toOrig {
		out[i] = cover[v]
	}
	return out
}

// LiftDuals re-indexes a feasible fractional matching on the kernel onto
// the original graph's edge ids (zero on every non-kernel edge). The result
// is feasible on the original graph: kernel vertices keep their incident
// sums, and forced or dropped vertices carry zero.
func (t *Trace) LiftDuals(kernelDuals []float64) []float64 {
	if len(kernelDuals) != t.kernel.NumEdges() {
		panic("reduce: LiftDuals vector length does not match kernel")
	}
	out := make([]float64, t.orig.NumEdges())
	ep := t.kernel.EdgeEndpoints()
	for e := 0; e < t.kernel.NumEdges(); e++ {
		u, v := t.toOrig[ep[2*e]], t.toOrig[ep[2*e+1]]
		out[t.orig.EdgeBetween(u, v)] = kernelDuals[e]
	}
	return out
}

// Result is the outcome of Run: the kernel graph, the trace that lifts
// kernel covers back (nil when nothing reduced and Kernel aliases the
// input), and the accounting stats.
type Result struct {
	Kernel *graph.Graph
	Trace  *Trace
	Stats  Stats
}

// Run applies all reduction rules to a fixpoint and assembles the kernel.
// It is deterministic (worklist and sweeps run in vertex order) and only
// reads g. The context is polled throughout, so cancellation aborts a
// long reduction promptly.
func Run(ctx context.Context, g *graph.Graph) (*Result, error) {
	r := newReducer(ctx, g)
	if err := r.fixpoint(); err != nil {
		return nil, err
	}
	return r.result()
}

// Per-vertex state bits of the reducer, packed into one byte per vertex.
const (
	flagAlive   uint8 = 1 << iota // still in the residual instance
	flagInCover                   // forced into the cover
	flagQueued                    // on the worklist
	flagDirty                     // residual neighborhood shrank since the last domination check
)

// reducer is the mutable fixpoint state over one immutable graph.
type reducer struct {
	g   *graph.Graph
	ctx context.Context
	st  Stats

	flags   []uint8 // flagAlive | flagInCover | flagQueued | flagDirty
	deg     []int32 // residual degree: number of alive neighbors
	forcedW float64

	// queue is a FIFO ring over n slots; flagQueued keeps every vertex on
	// it at most once, so it never overflows.
	queue        []graph.Vertex
	qHead, qSize int

	// stamp[x] == epoch marks x as the current pivot or one of its
	// neighbors (see dominator); epoch 0 is never current.
	stamp []int32
	epoch int32

	polls uint
}

// newReducer sets up the fixpoint state with every vertex alive, queued
// and dirty.
func newReducer(ctx context.Context, g *graph.Graph) *reducer {
	n := g.NumVertices()
	r := &reducer{
		g:     g,
		ctx:   ctx,
		st:    Stats{OriginalVertices: n, OriginalEdges: g.NumEdges()},
		flags: make([]uint8, n),
		deg:   make([]int32, n),
		queue: make([]graph.Vertex, n),
		qSize: n,
		stamp: make([]int32, n),
	}
	for v := 0; v < n; v++ {
		r.flags[v] = flagAlive | flagQueued | flagDirty
		r.deg[v] = int32(g.Degree(graph.Vertex(v)))
		r.queue[v] = graph.Vertex(v)
	}
	return r
}

func (r *reducer) alive(v graph.Vertex) bool { return r.flags[v]&flagAlive != 0 }

// result assembles the kernel from the fixpoint state: the input itself
// when nothing was removed, otherwise the subgraph induced by the alive
// vertices plus the trace that lifts its covers back.
func (r *reducer) result() (*Result, error) {
	g, n, st := r.g, r.g.NumVertices(), r.st
	st.ForcedWeight = r.forcedW

	removed := 0
	for v := 0; v < n; v++ {
		if !r.alive(graph.Vertex(v)) {
			removed++
		}
	}
	if removed == 0 {
		st.KernelVertices = n
		st.KernelEdges = g.NumEdges()
		return &Result{Kernel: g, Stats: st}, nil
	}

	aliveList := make([]graph.Vertex, 0, n-removed)
	var forced []graph.Vertex
	for v := 0; v < n; v++ {
		switch f := r.flags[v]; {
		case f&flagAlive != 0:
			aliveList = append(aliveList, graph.Vertex(v))
		case f&flagInCover != 0:
			forced = append(forced, graph.Vertex(v))
		}
	}
	kernel, toOrig, err := g.Induced(aliveList)
	if err != nil {
		return nil, err
	}
	st.KernelVertices = kernel.NumVertices()
	st.KernelEdges = kernel.NumEdges()
	tr := &Trace{orig: g, kernel: kernel, forced: forced, forcedW: r.forcedW, toOrig: toOrig}
	return &Result{Kernel: kernel, Trace: tr, Stats: st}, nil
}

// pollEvery is the poll cadence (a power of two): poll checks the context
// on every pollEvery-th call so the rule loops stay cheap.
const pollEvery = 4096

// poll checks the context every pollEvery-th call.
func (r *reducer) poll() error {
	r.polls++
	if r.polls&(pollEvery-1) == 0 {
		return r.ctx.Err()
	}
	return nil
}

func (r *reducer) push(v graph.Vertex) {
	if r.flags[v]&(flagAlive|flagQueued) == flagAlive {
		r.flags[v] |= flagQueued
		i := r.qHead + r.qSize
		if i >= len(r.queue) {
			i -= len(r.queue)
		}
		r.queue[i] = v
		r.qSize++
	}
}

// pop dequeues the oldest worklist entry; the caller checks qSize > 0.
func (r *reducer) pop() graph.Vertex {
	v := r.queue[r.qHead]
	r.qHead++
	if r.qHead == len(r.queue) {
		r.qHead = 0
	}
	r.qSize--
	r.flags[v] &^= flagQueued
	return v
}

// force commits u to the cover and removes it from the residual instance;
// its uncovered incident edges disappear, so every alive neighbor loses a
// degree, re-enters the worklist and is marked dirty for the next
// domination sweep. This is the only place an alive vertex loses a
// neighbor: the rules drop a vertex only once it has no alive neighbors.
func (r *reducer) force(u graph.Vertex) {
	r.flags[u] = r.flags[u]&^flagAlive | flagInCover
	r.st.ForcedVertices++
	r.forcedW += r.g.Weight(u)
	for _, x := range r.g.Neighbors(u) {
		if r.alive(x) {
			r.deg[x]--
			r.flags[x] |= flagDirty
			r.push(x)
		}
	}
}

// fixpoint alternates the cheap worklist rules (isolated, pendant,
// neighborhood weight) with domination sweeps until neither changes
// anything.
func (r *reducer) fixpoint() error {
	for {
		if err := r.drain(); err != nil {
			return err
		}
		changed, err := r.dominationSweep()
		if err != nil {
			return err
		}
		if !changed {
			return nil
		}
	}
}

// drain runs the worklist rules to exhaustion.
func (r *reducer) drain() error {
	for r.qSize > 0 {
		v := r.pop()
		if !r.alive(v) {
			continue
		}
		if err := r.poll(); err != nil {
			return err
		}
		switch {
		case r.deg[v] == 0:
			// Isolated: every incident edge already has a forced endpoint
			// (or never existed), so v is never needed.
			r.flags[v] &^= flagAlive
			r.st.Isolated++
		case r.deg[v] == 1:
			u := r.soleAliveNeighbor(v)
			if r.g.Weight(v) >= r.g.Weight(u) {
				// Pendant: covering the single edge (v, u) from the u side
				// costs no more and covers at least as much.
				r.force(u)
				r.flags[v] &^= flagAlive
				r.st.Pendant++
			}
		default:
			s := 0.0
			for _, u := range r.g.Neighbors(v) {
				if r.alive(u) {
					s += r.g.Weight(u)
				}
			}
			if r.g.Weight(v) >= s {
				// Neighborhood weight: swapping v for all of N(v) in any
				// cover never costs more, so N(v) is forced and v dropped.
				for _, u := range r.g.Neighbors(v) {
					if r.alive(u) {
						r.force(u)
					}
				}
				r.flags[v] &^= flagAlive
				r.st.NeighborhoodWeight++
			}
		}
	}
	return nil
}

// soleAliveNeighbor returns the single alive neighbor of a residual
// degree-1 vertex.
func (r *reducer) soleAliveNeighbor(v graph.Vertex) graph.Vertex {
	for _, u := range r.g.Neighbors(v) {
		if r.alive(u) {
			return u
		}
	}
	panic("reduce: residual degree-1 vertex has no alive neighbor")
}

// dominationSweep visits every alive dirty vertex v in ascending id order,
// clears its dirty bit, and forces the first dominator dominator(v) finds.
// A vertex that is not dirty has the same residual neighborhood as when a
// sweep last found no dominator for it, so it still has none (DESIGN.md
// §"Kernelization"). Returns whether anything changed (follow-up cheap
// rules are queued by force itself).
func (r *reducer) dominationSweep() (bool, error) {
	changed := false
	for v := 0; v < len(r.flags); v++ {
		if r.flags[v]&(flagAlive|flagDirty) != flagAlive|flagDirty {
			continue
		}
		r.flags[v] &^= flagDirty
		if err := r.poll(); err != nil {
			return false, err
		}
		if u, ok := r.dominator(graph.Vertex(v)); ok {
			r.force(u) // re-dirties v: it just lost u
			r.st.Domination++
			changed = true
		}
	}
	return changed, nil
}

// dominator returns the first alive neighbor u of v, in adjacency order,
// with w(u) ≤ w(v) and N_res[v] ⊆ N_res[u] — then some optimal cover
// contains u. Two exact filters reject most candidates before the full
// dominates check: N_res[v] ⊆ N_res[u] needs deg(v) ≤ deg(u), and every
// dominator is the pivot p (v's alive neighbor of least residual degree)
// or adjacent to it, so candidates outside N[p] cannot dominate. N[p] is
// stamped only once some candidate passes the degree bound.
func (r *reducer) dominator(v graph.Vertex) (graph.Vertex, bool) {
	flags, deg, w := r.flags, r.deg, r.g.Weights()
	wv, dv := w[v], deg[v]
	epoch := int32(0)
	for _, u := range r.g.Neighbors(v) {
		if flags[u]&flagAlive == 0 || w[u] > wv || deg[u] < dv {
			continue
		}
		if epoch == 0 {
			epoch = r.stampPivot(v)
		}
		if r.stamp[u] == epoch && r.dominates(u, v) {
			return u, true
		}
	}
	return 0, false
}

// stampPivot stamps N[p] for the alive neighbor p of v with the least
// residual degree (the first such in adjacency order) and returns the
// stamp's epoch. v must have an alive neighbor.
func (r *reducer) stampPivot(v graph.Vertex) int32 {
	flags, deg := r.flags, r.deg
	p, best := graph.Vertex(-1), int32(math.MaxInt32)
	for _, x := range r.g.Neighbors(v) {
		if flags[x]&flagAlive != 0 && deg[x] < best {
			p, best = x, deg[x]
		}
	}
	e := r.nextEpoch()
	stamp := r.stamp
	stamp[p] = e
	for _, x := range r.g.Neighbors(p) {
		stamp[x] = e
	}
	return e
}

// nextEpoch advances the stamp epoch. When the int32 epoch would wrap, the
// stamp array is cleared and the epochs restart from 1, so a stale stamp
// can never equal the current epoch.
func (r *reducer) nextEpoch() int32 {
	if r.epoch == math.MaxInt32 {
		clear(r.stamp)
		r.epoch = 0
	}
	r.epoch++
	return r.epoch
}

// dominates reports whether every alive neighbor of v other than u is also
// adjacent to u, i.e. N_res[v] ⊆ N_res[u] for the adjacent pair (u, v).
// Adjacency in the original graph suffices: an edge between two alive
// vertices is by definition still uncovered.
func (r *reducer) dominates(u, v graph.Vertex) bool {
	for _, x := range r.g.Neighbors(v) {
		if x == u || !r.alive(x) {
			continue
		}
		if !r.g.HasEdge(u, x) {
			return false
		}
	}
	return true
}
