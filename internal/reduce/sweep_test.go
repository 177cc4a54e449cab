package reduce

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func mustBuild(t *testing.T, n int, edges [][2]graph.Vertex, weights []float64) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdgeList(n, edges, weights)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// sweepOnce runs one drain and one domination sweep and returns how many
// dominations the sweep applied.
func sweepOnce(t *testing.T, r *reducer) int {
	t.Helper()
	if err := r.drain(); err != nil {
		t.Fatal(err)
	}
	before := r.st.Domination
	if _, err := r.dominationSweep(); err != nil {
		t.Fatal(err)
	}
	return r.st.Domination - before
}

// assertSameAsRef runs the fixpoint on r and checks its result against the
// reference reducer on the same graph.
func assertSameAsRef(t *testing.T, r *reducer) {
	t.Helper()
	if err := r.fixpoint(); err != nil {
		t.Fatal(err)
	}
	got, err := r.result()
	if err != nil {
		t.Fatal(err)
	}
	want, err := refRun(context.Background(), r.g)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffResults(got, want); d != "" {
		t.Fatal(d)
	}
}

// TestCascadeAcrossSweeps pins the dirty-set re-sweep on a hand-built
// cascade. Sweep 1 visits vertex 2 first and finds no dominator: its
// neighbor 5 is adjacent to neither 1 nor 3. Later in the same sweep,
// 5 dominates 4 (N[4] = {3,4,5} ⊆ N[5]) and is forced, which leaves
// N_res[2] = {1,2,3} ⊆ N[1]. No worklist rule applies in between, so only
// the dirty mark on 2 brings it back: sweep 2 must force 1, a tie
// w(1) = w(2).
func TestCascadeAcrossSweeps(t *testing.T) {
	edges := [][2]graph.Vertex{{0, 1}, {1, 2}, {1, 3}, {2, 3}, {2, 5}, {3, 4}, {3, 5}, {4, 5}}
	weights := []float64{1, 3, 3, 4, 3, 2}
	g := mustBuild(t, 6, edges, weights)
	r := newReducer(context.Background(), g)

	if got := sweepOnce(t, r); got != 1 || r.alive(5) {
		t.Fatalf("sweep 1: %d dominations, vertex 5 alive %v; want 1 and forced", got, r.alive(5))
	}
	for v, want := range []bool{false, false, true, true, true} {
		if got := r.flags[v]&flagDirty != 0; got != want {
			t.Fatalf("after sweep 1, vertex %d dirty = %v, want %v", v, got, want)
		}
	}
	if n := r.st.Isolated + r.st.Pendant + r.st.NeighborhoodWeight; n != 0 {
		t.Fatalf("a worklist rule fired (%d times); the cascade must come from the sweep", n)
	}
	if got := sweepOnce(t, r); got == 0 || r.alive(1) {
		t.Fatalf("sweep 2: %d dominations, vertex 1 alive %v; want vertex 1 forced", got, r.alive(1))
	}
	if r.st.Isolated+r.st.Pendant+r.st.NeighborhoodWeight != 0 {
		t.Fatal("the second drain changed the instance before sweep 2")
	}

	assertSameAsRef(t, newReducer(context.Background(), g))
}

// TestStampEpochWraps starts the stamp epoch just below MaxInt32: the
// wrap must clear every stale stamp and restart at 1, and a run that
// wraps mid-fixpoint must still match the reference.
func TestStampEpochWraps(t *testing.T) {
	g := gen.PreferentialAttachment(4, 3000, 3) // unit weights: domination cascades
	r := newReducer(context.Background(), g)
	r.epoch = math.MaxInt32 - 1
	for i := range r.stamp {
		r.stamp[i] = int32(i%3) + 1
	}
	if e := r.nextEpoch(); e != math.MaxInt32 {
		t.Fatalf("epoch %d, want MaxInt32", e)
	}
	if e := r.nextEpoch(); e != 1 {
		t.Fatalf("epoch after the wrap %d, want 1", e)
	}
	for i, s := range r.stamp {
		if s != 0 {
			t.Fatalf("stamp[%d] = %d survived the wrap", i, s)
		}
	}

	r = newReducer(context.Background(), g)
	r.epoch = math.MaxInt32 - 100
	assertSameAsRef(t, r)
	if r.st.Domination == 0 || r.epoch >= math.MaxInt32-100 {
		t.Fatalf("the run did not wrap the epoch (epoch %d, %d dominations)", r.epoch, r.st.Domination)
	}
}

// errAfter is a context whose Err turns non-nil after a fixed number of
// nil answers.
type errAfter struct {
	context.Context
	left, calls int
}

func (c *errAfter) Err() error {
	c.calls++
	if c.left == 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// TestCancellationMidSweep cancels a dense, irreducible run after the
// first drain: every vertex is still dirty, so the sweep must poll and
// abort rather than run to completion (the ctxloop contract).
func TestCancellationMidSweep(t *testing.T) {
	const n = 8192
	g := gen.ApplyWeights(gen.GnpAvgDegree(3, n, 64), 4, gen.UniformRange{Lo: 1, Hi: 100})
	res, err := Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatalf("instance reduced (%+v); the test needs one drain and one sweep", res.Stats)
	}
	// The drain polls once per vertex; its context checks all answer nil.
	ctx := &errAfter{Context: context.Background(), left: n / pollEvery}
	if _, err := Run(ctx, g); !errors.Is(err, context.Canceled) {
		t.Fatalf("run cancelled after the drain returned %v, want context.Canceled", err)
	}
	if ctx.calls != n/pollEvery+1 {
		t.Fatalf("context checked %d times, want %d", ctx.calls, n/pollEvery+1)
	}
}
