package reduce

// This file keeps a test-only reference reducer and the exact comparison
// against it, and exports both to the external test package (reduce_test),
// which can import exact and gen without an import cycle.

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
)

// RefRun is the reference reducer; see refRun.
var RefRun = refRun

// DiffResults is diffResults, for the external test package.
var DiffResults = diffResults

// diffResults returns "" when two reductions agree exactly — every Stats
// field, the forced set, the ForcedWeight bits, and the kernel's vertex
// map, edge list and weight bits — and otherwise names the first
// difference.
func diffResults(got, want *Result) string {
	gs, ws := got.Stats, want.Stats
	if math.Float64bits(gs.ForcedWeight) != math.Float64bits(ws.ForcedWeight) {
		return fmt.Sprintf("forced weight %v, reference %v", gs.ForcedWeight, ws.ForcedWeight)
	}
	gs.ForcedWeight, ws.ForcedWeight = 0, 0
	if gs != ws {
		return fmt.Sprintf("stats differ from the reference:\n got %+v\nwant %+v", got.Stats, want.Stats)
	}
	if (got.Trace == nil) != (want.Trace == nil) {
		return fmt.Sprintf("trace presence differs: got %v, reference %v", got.Trace != nil, want.Trace != nil)
	}
	if got.Trace == nil {
		return ""
	}
	gt, wt := got.Trace, want.Trace
	switch {
	case math.Float64bits(gt.forcedW) != math.Float64bits(wt.forcedW):
		return fmt.Sprintf("trace forced weight %v, reference %v", gt.forcedW, wt.forcedW)
	case !slices.Equal(gt.forced, wt.forced):
		return "forced set differs from the reference"
	case !slices.Equal(gt.toOrig, wt.toOrig):
		return "kernel vertex map differs from the reference"
	case !slices.Equal(got.Kernel.EdgeEndpoints(), want.Kernel.EdgeEndpoints()):
		return "kernel edge list differs from the reference"
	}
	for v, w := range want.Kernel.Weights() {
		if math.Float64bits(got.Kernel.Weights()[v]) != math.Float64bits(w) {
			return fmt.Sprintf("kernel weight of vertex %d differs from the reference", v)
		}
	}
	return ""
}

// refRun is Run with the domination sweep in its original, unfiltered
// form: every alive vertex is rescanned on every sweep and every lighter
// alive neighbor gets the full dominates check. It is the differential
// oracle for the filtered, dirty-set sweep, which must agree with it bit
// for bit (stats, forced set, forced weight, kernel).
func refRun(ctx context.Context, g *graph.Graph) (*Result, error) {
	n := g.NumVertices()
	st := Stats{
		OriginalVertices: n,
		OriginalEdges:    g.NumEdges(),
	}
	r := &refReducer{g: g, ctx: ctx, st: &st}
	if err := r.fixpoint(); err != nil {
		return nil, err
	}
	st.ForcedWeight = r.forcedW

	removed := 0
	for v := 0; v < n; v++ {
		if !r.alive[v] {
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
		switch {
		case r.alive[v]:
			aliveList = append(aliveList, graph.Vertex(v))
		case r.inCover[v]:
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

// refReducer is the mutable fixpoint state over one immutable graph.
type refReducer struct {
	g   *graph.Graph
	ctx context.Context
	st  *Stats

	alive   []bool // vertex still in the residual instance
	inCover []bool // vertex forced into the cover
	deg     []int32
	forcedW float64

	queue   []graph.Vertex
	inQueue []bool
	polls   uint
}

// poll checks the context every 4096th call so the rule loops stay cheap.
func (r *refReducer) poll() error {
	r.polls++
	if r.polls&0xFFF == 0 {
		return r.ctx.Err()
	}
	return nil
}

func (r *refReducer) push(v graph.Vertex) {
	if r.alive[v] && !r.inQueue[v] {
		r.inQueue[v] = true
		r.queue = append(r.queue, v)
	}
}

// force commits u to the cover and removes it from the residual instance;
// its uncovered incident edges disappear, so every alive neighbor loses a
// degree and re-enters the worklist.
func (r *refReducer) force(u graph.Vertex) {
	r.alive[u] = false
	r.inCover[u] = true
	r.st.ForcedVertices++
	r.forcedW += r.g.Weight(u)
	for _, x := range r.g.Neighbors(u) {
		if r.alive[x] {
			r.deg[x]--
			r.push(x)
		}
	}
}

// fixpoint alternates the cheap worklist rules (isolated, pendant,
// neighborhood weight) with domination sweeps until neither changes
// anything.
func (r *refReducer) fixpoint() error {
	n := r.g.NumVertices()
	r.alive = make([]bool, n)
	r.inCover = make([]bool, n)
	r.inQueue = make([]bool, n)
	r.deg = make([]int32, n)
	r.queue = make([]graph.Vertex, 0, n)
	for v := 0; v < n; v++ {
		r.alive[v] = true
		r.inQueue[v] = true
		r.deg[v] = int32(r.g.Degree(graph.Vertex(v)))
		r.queue = append(r.queue, graph.Vertex(v))
	}
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
func (r *refReducer) drain() error {
	for len(r.queue) > 0 {
		v := r.queue[0]
		r.queue = r.queue[1:]
		r.inQueue[v] = false
		if !r.alive[v] {
			continue
		}
		if err := r.poll(); err != nil {
			return err
		}
		switch {
		case r.deg[v] == 0:
			// Isolated: every incident edge already has a forced endpoint
			// (or never existed), so v is never needed.
			r.alive[v] = false
			r.st.Isolated++
		case r.deg[v] == 1:
			u := r.soleAliveNeighbor(v)
			if r.g.Weight(v) >= r.g.Weight(u) {
				// Pendant: covering the single edge (v, u) from the u side
				// costs no more and covers at least as much.
				r.force(u)
				r.alive[v] = false
				r.st.Pendant++
			}
		default:
			s := 0.0
			for _, u := range r.g.Neighbors(v) {
				if r.alive[u] {
					s += r.g.Weight(u)
				}
			}
			if r.g.Weight(v) >= s {
				// Neighborhood weight: swapping v for all of N(v) in any
				// cover never costs more, so N(v) is forced and v dropped.
				for _, u := range r.g.Neighbors(v) {
					if r.alive[u] {
						r.force(u)
					}
				}
				r.alive[v] = false
				r.st.NeighborhoodWeight++
			}
		}
	}
	return nil
}

// soleAliveNeighbor returns the single alive neighbor of a residual
// degree-1 vertex.
func (r *refReducer) soleAliveNeighbor(v graph.Vertex) graph.Vertex {
	for _, u := range r.g.Neighbors(v) {
		if r.alive[u] {
			return u
		}
	}
	panic("reduce: residual degree-1 vertex has no alive neighbor")
}

// dominationSweep scans every alive vertex v for an alive neighbor u with
// w(u) ≤ w(v) whose closed residual neighborhood contains v's — then some
// optimal cover contains u, and u is forced. Returns whether anything
// changed (follow-up cheap rules are queued by force itself).
func (r *refReducer) dominationSweep() (bool, error) {
	changed := false
	for v := 0; v < r.g.NumVertices(); v++ {
		if !r.alive[v] {
			continue
		}
		if err := r.poll(); err != nil {
			return false, err
		}
		wv := r.g.Weight(graph.Vertex(v))
		for _, u := range r.g.Neighbors(graph.Vertex(v)) {
			if !r.alive[u] || r.g.Weight(u) > wv {
				continue
			}
			if r.dominates(u, graph.Vertex(v)) {
				r.force(u)
				r.st.Domination++
				changed = true
				break // v's residual degree changed; the worklist revisits it
			}
		}
	}
	return changed, nil
}

// dominates reports whether every alive neighbor of v other than u is also
// adjacent to u, i.e. N_res[v] ⊆ N_res[u] for the adjacent pair (u, v).
// Adjacency in the original graph suffices: an edge between two alive
// vertices is by definition still uncovered.
func (r *refReducer) dominates(u, v graph.Vertex) bool {
	for _, x := range r.g.Neighbors(v) {
		if x == u || !r.alive[x] {
			continue
		}
		if !r.g.HasEdge(u, x) {
			return false
		}
	}
	return true
}
