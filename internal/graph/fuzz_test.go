package graph_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/graph"
)

// declaredVertexCount extracts the vertex count an input's size line claims,
// mirroring the scanner's skip rules (blank lines, '#' comments). The fuzz
// harness uses it as an out-of-memory guard: a syntactically valid header
// may declare up to MaxInt32 vertices — which Read would dutifully allocate
// — so inputs whose claim cannot be positively bounded are skipped rather
// than parsed. ok is false when no small bound could be established.
func declaredVertexCount(data []byte) (n int64, ok bool) {
	lines := 0
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		var line []byte
		if nl < 0 {
			line, data = data, nil
		} else {
			line, data = data[:nl], data[nl+1:]
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		lines++
		if lines < 2 {
			continue // header line
		}
		f := bytes.Fields(line)
		if len(f) == 0 {
			return 0, false
		}
		var x int64
		for _, c := range f[0] {
			if c < '0' || c > '9' || x > math.MaxInt32 {
				return 0, false
			}
			x = x*10 + int64(c-'0')
		}
		return x, true
	}
	return 0, false
}

// FuzzReadGraph feeds arbitrary bytes through both parse paths (the
// buffering Read and the chunked two-pass ReadStream, also at 3 and 7
// forced chunks) and pins three properties: parsing never panics, all
// paths accept the same inputs and build them with the same weight bits
// and edge ids, and any accepted graph round-trips through
// WriteEdgeList→ReadStream bit-identically — same serialized bytes, same
// weight bit patterns, same edge-id order.
func FuzzReadGraph(f *testing.F) {
	f.Add([]byte("mwvc-graph 1\n3 2\nw 0 2.5\ne 0 1\ne 1 2\n"))
	f.Add([]byte("mwvc-el 1\n4\ne 0 1\nw 3 0.25\ne 2 3\ne 0 1\n"))
	f.Add([]byte("mwvc-graph 1\n2 1\ne 1 0\n"))
	f.Add([]byte("# comment\nmwvc-el 1\n5\nw 4 1e-3\ne 0 4\n"))
	f.Add([]byte("mwvc-graph 1\n1 0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if n, ok := declaredVertexCount(data); !ok || n > 1<<20 {
			t.Skip("vertex-count claim unbounded or over the harness cap")
		}
		g, err := graph.Read(bytes.NewReader(data))
		gs, errS := graph.ReadStream(bytes.NewReader(data), int64(len(data)))
		if (err == nil) != (errS == nil) {
			t.Fatalf("Read err=%v but ReadStream err=%v on the same input", err, errS)
		}
		// The chunked reader must agree at any chunk count, wherever the
		// chunk boundaries fall.
		for _, p := range []int{3, 7} {
			gc, errC := graph.ReadChunked(bytes.NewReader(data), int64(len(data)), p)
			if (err == nil) != (errC == nil) {
				t.Fatalf("Read err=%v but %d chunks err=%v on the same input", err, p, errC)
			}
			if err == nil {
				assertSameBits(t, g, gc)
			}
		}
		if err != nil {
			return // rejected cleanly by every path
		}

		// Round-trip: serialize, re-ingest through the streaming path, and
		// serialize again. Accepted inputs must survive bit-identically.
		var first bytes.Buffer
		if err := graph.WriteEdgeList(&first, g); err != nil {
			t.Fatal(err)
		}
		g2, err := graph.ReadStream(bytes.NewReader(first.Bytes()), int64(first.Len()))
		if err != nil {
			t.Fatalf("re-reading serialized accepted graph: %v", err)
		}
		var second bytes.Buffer
		if err := graph.WriteEdgeList(&second, g2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("WriteEdgeList → ReadStream → WriteEdgeList is not a fixed point")
		}
		if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round-trip changed sizes: n %d→%d m %d→%d",
				g.NumVertices(), g2.NumVertices(), g.NumEdges(), g2.NumEdges())
		}
		for v := 0; v < g.NumVertices(); v++ {
			a, b := g.Weight(graph.Vertex(v)), g2.Weight(graph.Vertex(v))
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("round-trip changed weight of %d: %v → %v", v, a, b)
			}
		}
		assertSameBits(t, g, gs)
	})
}

// assertSameBits fails unless a and b have the same weight bits and the
// same endpoints under every edge id.
func assertSameBits(t *testing.T, a, b *graph.Graph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() {
		t.Fatalf("vertex counts differ: %d vs %d", a.NumVertices(), b.NumVertices())
	}
	for v := 0; v < a.NumVertices(); v++ {
		if math.Float64bits(a.Weight(graph.Vertex(v))) != math.Float64bits(b.Weight(graph.Vertex(v))) {
			t.Fatalf("weight of %d differs: %v vs %v", v, a.Weight(graph.Vertex(v)), b.Weight(graph.Vertex(v)))
		}
	}
	ea, eb := a.EdgeEndpoints(), b.EdgeEndpoints()
	if len(ea) != len(eb) {
		t.Fatalf("edge counts differ: %d vs %d", len(ea)/2, len(eb)/2)
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("endpoint slot %d differs: %d vs %d", i, ea[i], eb[i])
		}
	}
}
