package core

import (
	"math"

	"repro/internal/graph"
	"repro/internal/mpc"
)

// PhaseStat records what one phase of Algorithm 2 did — the raw material
// for experiments E1 (rounds), E3 (machine memory) and E4 (degree decay).
type PhaseStat struct {
	// Phase is the phase index, starting at 0.
	Phase int
	// AvgDegree is d at the start of the phase: (1/n)·Σ_{v nonfrozen} d(v).
	AvgDegree float64
	// NumNonfrozen, NumHigh, NumInactive count vertices at the phase start.
	NumNonfrozen int
	NumHigh      int
	NumInactive  int
	// Machines is m = √d for the phase; Iterations is I.
	Machines   int
	Iterations int
	// MaxMachineEdges is max_i |E[V_i]|, the Lemma 4.1 quantity.
	MaxMachineEdges int
	// TotalMachineEdges is Σ_i |E[V_i]| — the globally materialized edges,
	// bounded by Õ(√d·n) ≤ Õ(|E|) in Lemma 4.1's global-memory remark.
	TotalMachineEdges int64
	// MaxMachineWords is the largest resident memory of any machine.
	MaxMachineWords int64
	// EdgesBefore / EdgesAfter count nonfrozen edges at phase boundaries.
	EdgesBefore int64
	EdgesAfter  int64
	// DecayBound is Lemma 4.4's two-term bound on EdgesAfter:
	// n·d·(1−ε)^I (surviving active out-edges, Observation 4.3) plus
	// n·d^γ (edges parked at V^inactive). The paper folds the second term
	// into the first — valid when (1−ε)^I ≥ d^{γ−1}, which its constants
	// guarantee asymptotically — so it states the single term 2·n·d·(1−ε)^I;
	// the two-term form is the inequality its proof actually establishes
	// and the one that is checkable at finite scale.
	DecayBound float64
	// NewlyFrozenVertices counts vertices frozen during the phase
	// (including the Line 2i safety freeze, reported separately too).
	NewlyFrozenVertices int
	FrozenAtLine2i      int
}

// CouplingPhase retains everything needed to replay one phase against the
// centralized reference with identical randomness (Lemma 4.6 experiments).
type CouplingPhase struct {
	Phase int
	// High lists V^high in ascending vertex order.
	High []graph.Vertex
	// ResidualWeight[i] is w′(High[i]).
	ResidualWeight []float64
	// MachineOf[i] is the machine High[i] was assigned to.
	MachineOf []int
	// Machines and Iterations echo the phase parameters.
	Machines   int
	Iterations int
	// Edges lists E[V^high] as index pairs into High, with initial duals.
	Edges [][2]int32
	X0    []float64
	// FreezeIter[i] is the local-simulation freeze iteration of High[i] in
	// [0, Iterations), or -1 if it stayed active through the simulation.
	FreezeIter []int
}

// Result is the outcome of a run of Algorithm 2.
type Result struct {
	// Cover[v] reports whether v is in the returned vertex cover.
	Cover []bool
	// X holds the finalized edge weights x^MPC_e. They form a fractional
	// matching that is feasible up to the (1+6ε) one-sided estimator error
	// of Lemma 4.6; FeasibleDual rescales them into an exactly feasible
	// certificate and reports the violation factor actually observed.
	X []float64
	// Phases is the number of sampled phases executed (excluding the final
	// centralized phase).
	Phases int
	// FinalPhaseIterations is the iteration count of the final centralized
	// phase (Line 3).
	FinalPhaseIterations int
	// FinalPhaseEdges is the number of edges moved to one machine at Line 3.
	FinalPhaseEdges int64
	// Rounds is the total number of MPC communication rounds, including the
	// accounted O(1)-round aggregation primitives per phase.
	Rounds int
	// ClusterMetrics snapshots the substrate's accounting.
	ClusterMetrics mpc.Metrics
	// PhaseStats has one entry per sampled phase.
	PhaseStats []PhaseStat
	// Coupling is non-nil when Params.CollectCoupling was set.
	Coupling []CouplingPhase
}

// FeasibleDual returns duals scaled to exact feasibility together with the
// violation factor alpha = max(1, max_v Σ_{e∋v} x_e / w(v)). Theorem 4.7
// proves alpha ≤ 1+6ε w.h.p.; experiments record the measured value.
func (r *Result) FeasibleDual(g *graph.Graph) (scaled []float64, alpha float64) {
	alpha = 1.0
	incident := incidentSums(g, r.X)
	for v := 0; v < g.NumVertices(); v++ {
		if w := g.Weight(graph.Vertex(v)); w > 0 {
			if f := incident[v] / w; f > alpha {
				alpha = f
			}
		}
	}
	scaled = make([]float64, len(r.X))
	inv := 1 / alpha
	for e, x := range r.X {
		scaled[e] = x * inv
	}
	return scaled, alpha
}

// CoverTightness returns the minimum over cover vertices of
// Σ_{e∋v} x_e / w(v) — the paper proves ≥ 1−16ε w.h.p. (Theorem 4.7), which
// is what makes the cover weight chargeable to the dual. Returns +Inf for an
// empty cover.
func (r *Result) CoverTightness(g *graph.Graph) float64 {
	incident := incidentSums(g, r.X)
	minTight := math.Inf(1)
	for v := 0; v < g.NumVertices(); v++ {
		if r.Cover[v] {
			if t := incident[v] / g.Weight(graph.Vertex(v)); t < minTight {
				minTight = t
			}
		}
	}
	return minTight
}

// incidentSums returns Σ_{e∋v} x_e for every vertex, accumulated in
// ascending edge order.
func incidentSums(g *graph.Graph, x []float64) []float64 {
	incident := make([]float64, g.NumVertices())
	ep := g.EdgeEndpoints()
	for e := 0; e < g.NumEdges(); e++ {
		u, v := ep[2*e], ep[2*e+1]
		incident[u] += x[e]
		incident[v] += x[e]
	}
	return incident
}
