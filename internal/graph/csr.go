package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// CSRBuilder assembles a Graph directly into its final CSR arrays from two
// passes over an edge stream, using O(n + m) memory with no intermediate
// edge-list buffer. It is the ingestion path for instances too large to
// mirror as an in-memory pair list (Builder's job): the caller streams every
// edge once through CountEdge, calls EndCount, streams the same edges again
// through AddEdge, and calls Build.
//
// The two passes must induce the same degree sequence (replaying the same
// stream — a file read twice, a deterministic generator run twice — always
// does); violations are detected and reported. Duplicate edges are merged
// and self-loops rejected, matching Builder semantics, so for a given edge
// set both builders produce bit-identical graphs.
//
// A CSRBuilder is single-use: Build transfers ownership of its arrays to
// the returned Graph.
type CSRBuilder struct {
	n       int
	weights []float64
	// deg holds per-vertex counts during pass 1, the per-vertex fill
	// cursors during pass 2, and the reverse-slot cursors during Build —
	// one n-sized array wearing three hats so the builder's overhead
	// beyond the final graph is a single scratch array.
	deg       []uint32
	offsets   []uint32
	neighbors []Vertex
	counted   int64
	filled    int64
	state     csrState
}

type csrState uint8

const (
	csrCounting csrState = iota
	csrFilling
	csrBuilt
)

// NewCSRBuilder returns a streaming builder for a graph on n vertices, all
// with weight 1.
func NewCSRBuilder(n int) *CSRBuilder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return &CSRBuilder{n: n, weights: w, deg: make([]uint32, n)}
}

// NumVertices returns the declared vertex count.
func (b *CSRBuilder) NumVertices() int { return b.n }

// SetWeight sets the weight of vertex v; callable at any point before Build.
// Weights must be positive and finite; violations surface at Build time.
func (b *CSRBuilder) SetWeight(v Vertex, w float64) *CSRBuilder {
	b.weights[v] = w
	return b
}

// SetWeights copies the given weights (which must have length n).
func (b *CSRBuilder) SetWeights(w []float64) *CSRBuilder {
	if len(w) != b.n {
		panic(fmt.Sprintf("graph: SetWeights length %d, want %d", len(w), b.n))
	}
	copy(b.weights, w)
	return b
}

// errEdgeCap rejects inputs with more edge records than int32 edge ids
// can number.
var errEdgeCap = fmt.Errorf("graph: edge count exceeds %d", math.MaxInt32)

// passExcessError reports a second pass that found more edges at v than the
// first pass counted.
func passExcessError(v Vertex) error {
	return fmt.Errorf("graph: pass 2 has more edges at vertex %d than pass 1 counted", v)
}

// CountEdge records one edge of the first pass. Endpoint order is
// irrelevant; duplicates may be counted (they are merged at Build).
func (b *CSRBuilder) CountEdge(u, v Vertex) error {
	if b.state != csrCounting {
		return errors.New("graph: CountEdge after EndCount")
	}
	if err := checkEdge(u, v, b.n); err != nil {
		return err
	}
	if b.counted >= math.MaxInt32 {
		return errEdgeCap
	}
	b.deg[u]++
	b.deg[v]++
	b.counted++
	return nil
}

// EndCount finishes the first pass: it prefix-sums the degree counts into
// the CSR offsets and allocates the adjacency array (the only O(m)
// allocation the builder performs).
func (b *CSRBuilder) EndCount() error {
	if b.state != csrCounting {
		return errors.New("graph: EndCount called twice")
	}
	b.offsets = make([]uint32, b.n+1)
	var sum uint32
	for v := 0; v < b.n; v++ {
		b.offsets[v] = sum
		sum += b.deg[v]
		b.deg[v] = b.offsets[v] // becomes the pass-2 fill cursor
	}
	b.offsets[b.n] = sum
	b.neighbors = make([]Vertex, sum)
	b.state = csrFilling
	return nil
}

// AddEdge records one edge of the second pass, placing both directed slots
// at their final CSR positions. The second pass must induce the same degree
// sequence as the first; an excess at either endpoint is reported here and
// a shortfall at Build.
func (b *CSRBuilder) AddEdge(u, v Vertex) error {
	if b.state != csrFilling {
		if b.state == csrCounting {
			return errors.New("graph: AddEdge before EndCount")
		}
		return errors.New("graph: AddEdge after Build")
	}
	if err := checkEdge(u, v, b.n); err != nil {
		return err
	}
	cu := b.deg[u]
	if cu >= b.offsets[u+1] {
		return passExcessError(u)
	}
	cv := b.deg[v]
	if cv >= b.offsets[v+1] {
		return passExcessError(v)
	}
	b.neighbors[cu] = v
	b.deg[u] = cu + 1
	b.neighbors[cv] = u
	b.deg[v] = cv + 1
	b.filled++
	return nil
}

// Build sorts each adjacency row in place, merges duplicate edges, assigns
// edge ids in lexicographic (min, max) order, validates weights, and
// freezes the arrays into a Graph. The builder must not be used afterwards.
func (b *CSRBuilder) Build() (*Graph, error) {
	switch b.state {
	case csrCounting:
		// A zero-edge caller may go straight to Build.
		if err := b.EndCount(); err != nil {
			return nil, err
		}
	case csrFilling:
	default:
		return nil, errors.New("graph: CSRBuilder already built")
	}
	if b.filled != b.counted {
		return nil, fmt.Errorf("graph: pass 2 delivered %d edges, pass 1 counted %d", b.filled, b.counted)
	}
	for v, w := range b.weights {
		if !(w > 0) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("graph: vertex %d has weight %v, want positive finite", v, w)
		}
	}

	// Sort rows, then merge duplicate slots in place, rebuilding offsets as
	// the write cursor advances (offsets[v] is rewritten only after both of
	// its reads, so the compaction is safe front-to-back).
	var w uint32
	for v := 0; v < b.n; v++ {
		lo, hi := b.offsets[v], b.offsets[v+1]
		slices.Sort(b.neighbors[lo:hi])
		start := w
		var prev Vertex = -1
		for i := lo; i < hi; i++ {
			if x := b.neighbors[i]; x != prev {
				b.neighbors[w] = x
				prev = x
				w++
			}
		}
		b.offsets[v] = start
	}
	b.offsets[b.n] = w
	slots := int(w)
	if slots%2 != 0 {
		return nil, errors.New("graph: internal error: odd adjacency slot count")
	}
	neighbors := b.neighbors[:slots]
	if slots <= cap(b.neighbors)*3/4 {
		neighbors = slices.Clone(neighbors) // heavy dedup: release the slack
	}

	// Assign edge ids by scanning rows in vertex order: every slot with
	// neighbor > row vertex opens the next id; its mirror slot is the first
	// unassigned slot of the neighbor's row (rows are sorted, and smaller
	// endpoints are visited in increasing order), tracked by reusing deg as
	// per-row cursors.
	m := slots / 2
	slotEdges := make([]EdgeID, slots)
	endpoints := make([]Vertex, slots)
	cursor := b.deg
	copy(cursor, b.offsets[:b.n])
	next := EdgeID(0)
	for u := 0; u < b.n; u++ {
		for i := b.offsets[u]; i < b.offsets[u+1]; i++ {
			v := neighbors[i]
			if v <= Vertex(u) {
				continue
			}
			j := cursor[v]
			if neighbors[j] != Vertex(u) {
				return nil, fmt.Errorf("graph: internal error: mirror slot mismatch at edge (%d,%d)", u, v)
			}
			endpoints[2*next] = Vertex(u)
			endpoints[2*next+1] = v
			slotEdges[i] = next
			slotEdges[j] = next
			cursor[v] = j + 1
			next++
		}
	}
	if int(next) != m {
		return nil, errors.New("graph: internal error: edge id count mismatch")
	}

	g := &Graph{
		weights:   b.weights,
		offsets:   b.offsets,
		neighbors: neighbors,
		slotEdges: slotEdges,
		endpoints: endpoints,
	}
	b.state = csrBuilt
	b.weights, b.offsets, b.neighbors, b.deg = nil, nil, nil, nil
	return g, nil
}
