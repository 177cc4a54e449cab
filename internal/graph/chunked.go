package graph

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/bits"
	"runtime"
	"sync"
)

// chunkBytes is the body share that earns a chunk of ReadStream its own
// worker: a body of b bytes is read as max(1, min(GOMAXPROCS, b/chunkBytes))
// chunks.
const chunkBytes = 1 << 20

// batchLen is how many parsed edges a pass queues before it counts or
// places them.
const batchLen = 256

// ReadStream parses a graph in either text format from a random-access
// source of the given size, in two passes over the same bytes. After the
// header, the body is cut at line boundaries into P chunks (see
// chunkBytes), and one worker per chunk reads its byte range through a
// single windowBytes window, reused by both passes:
//
//   - pass 1 validates every record, counts degrees per chunk and collects
//     weights;
//   - a prefix sum over (vertex, chunk) then gives each chunk its own run
//     of slots in every CSR row;
//   - pass 2 places each edge of a chunk in that chunk's runs.
//
// The result is bit-identical to Read's for every input, and so are the
// inputs it rejects: the last weight record of a vertex in file order
// wins, and a malformed input fails with its first error in file order.
// Peak memory is the finished graph plus P windows, P−1 n-sized count
// arrays (the first chunk counts into the builder's own) and ⌊(P−1)/2⌋
// n-sized arrays of run boundaries (see layoutChunks); a chunk after the
// first that holds weight records adds an n-sized weight array until the
// end of pass 1. There is never an edge-list buffer, which is what admits instances in
// the paper's regime (millions of edges) on ordinary machines.
func ReadStream(r io.ReaderAt, size int64) (*Graph, error) {
	return readChunked(r, size, 0)
}

// readChunked is ReadStream with the chunk count forced to chunks when it
// is positive; tests use it to put chunk boundaries anywhere.
func readChunked(r io.ReaderAt, size int64, chunks int) (*Graph, error) {
	var hw lineWindow
	hw.reset(io.NewSectionReader(r, 0, size))
	h, err := readHeader(&hw)
	if err != nil {
		return nil, err
	}
	body := hw.consumed
	p := chunks
	if p <= 0 {
		p = max(1, min(runtime.GOMAXPROCS(0), int((size-body)/chunkBytes)))
	}
	ks := make([]chunk, p)
	ks[0].win.buf = hw.buf
	if err := splitBody(r, body, size, ks); err != nil {
		return nil, err
	}

	c := NewCSRBuilder(h.n)
	ks[0].deg = c.deg
	for i := 1; i < p; i++ {
		ks[i].deg = make([]uint32, h.n)
	}
	forEachChunk(ks, func(i int, k *chunk) {
		own := []float64(nil)
		if i == 0 {
			own = c.weights
		}
		k.err = k.count(r, h.n, own)
	})
	var edges int64
	for i := range ks {
		if ks[i].err != nil {
			return nil, ks[i].err
		}
		if edges += ks[i].edges; edges > math.MaxInt32 {
			return nil, errEdgeCap
		}
	}
	if h.m >= 0 && edges != int64(h.m) {
		return nil, declaredEdgesError(h, edges)
	}
	for i := 1; i < p; i++ {
		ks[i].mergeWeights(c.weights)
	}

	layoutChunks(c, ks)
	forEachChunk(ks, func(_ int, k *chunk) {
		k.err = k.place(r, c.neighbors)
	})
	for i := range ks {
		if ks[i].err != nil {
			return nil, ks[i].err
		}
		if ks[i].placed != ks[i].edges {
			return nil, fmt.Errorf("graph: pass 2 delivered %d edges in chunk %d, pass 1 counted %d", ks[i].placed, i, ks[i].edges)
		}
	}
	c.counted, c.filled, c.state = edges, edges, csrFilling
	g, err := c.Build()
	if err != nil {
		return nil, err
	}
	if err := checkBuiltEdges(h, g); err != nil {
		return nil, err
	}
	return g, nil
}

// chunk is one worker's share of a file body: the bytes [lo, hi), which
// hold whole lines.
type chunk struct {
	lo, hi int64
	win    lineWindow
	// deg holds this chunk's degree counts after pass 1 and, during pass
	// 2, the number of slots it has still to fill in each row.
	deg []uint32
	// base and up locate the chunk's run of slots in each row: the run
	// starts at base[v] when up is set and ends just before base[v]
	// otherwise. With deg[v] slots left, the next one pass 2 fills is
	// base[v]+deg[v]-1 or base[v]-deg[v].
	base []uint32
	up   bool
	// weights and set hold the weight records of a chunk after the first,
	// allocated at its first weight record (set is a bit per vertex).
	weights []float64
	set     []uint64
	batch   [batchLen][2]Vertex // edges parsed but not yet counted or placed
	edges   int64               // edge records counted in pass 1
	placed  int64               // edge records placed in pass 2
	err     error
}

// splitBody cuts the body [body, size) into len(ks) chunks of about equal
// size, each nominal cut moved forward to the start of the next line.
// Chunks may be empty.
func splitBody(r io.ReaderAt, body, size int64, ks []chunk) error {
	probe := ks[0].win.buf[:min(len(ks[0].win.buf), 4<<10)]
	p := int64(len(ks))
	lo := body
	for i := range ks {
		hi := size
		if i+1 < len(ks) {
			cut, err := lineStart(r, body+(size-body)*int64(i+1)/p, size, probe)
			if err != nil {
				return err
			}
			hi = max(lo, cut)
		}
		ks[i].lo, ks[i].hi = lo, hi
		lo = hi
	}
	return nil
}

// lineStart returns the offset of the first line that starts at or after
// q (q > 0): just past the first '\n' at or after q-1, or size if there is
// none.
func lineStart(r io.ReaderAt, q, size int64, probe []byte) (int64, error) {
	for pos := q - 1; pos < size; {
		n, err := r.ReadAt(probe[:min(int64(len(probe)), size-pos)], pos)
		if i := bytes.IndexByte(probe[:n], '\n'); i >= 0 {
			return pos + int64(i) + 1, nil
		}
		pos += int64(n)
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		if n == 0 {
			return 0, io.ErrNoProgress
		}
	}
	return size, nil
}

// forEachChunk runs fn on every chunk, one goroutine per chunk after the
// first, which runs on the caller's.
func forEachChunk(ks []chunk, fn func(i int, k *chunk)) {
	var wg sync.WaitGroup
	for i := 1; i < len(ks); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, &ks[i])
		}()
	}
	fn(0, &ks[0])
	wg.Wait()
}

// count is pass 1 over the chunk. It validates every record, counts both
// endpoints of every edge into k.deg and stores weights: into own when
// the chunk is the first, into the chunk's private weights otherwise.
//
//mwvc:hotpath
func (k *chunk) count(r io.ReaderAt, n int, own []float64) error {
	k.win.reset(io.NewSectionReader(r, k.lo, k.hi-k.lo))
	queued := 0
	for {
		line, err := k.win.next()
		if err == io.EOF {
			k.countBatch(k.batch[:queued])
			return nil
		}
		if err != nil {
			return err
		}
		rec, err := parseLine(line)
		if err != nil {
			return err
		}
		switch rec.kind {
		case recEdge:
			if uint32(rec.u) >= uint32(n) || uint32(rec.v) >= uint32(n) || rec.u == rec.v {
				return checkEdge(rec.u, rec.v, n)
			}
			if k.edges+int64(queued) >= math.MaxInt32 {
				return errEdgeCap
			}
			k.batch[queued] = [2]Vertex{rec.u, rec.v}
			if queued++; queued == len(k.batch) {
				k.countBatch(k.batch[:])
				queued = 0
			}
		case recWeight:
			if err := k.setWeight(line, rec, n, own); err != nil {
				return err
			}
		}
	}
}

// countBatch counts a batch of edges into k.deg. Both passes queue parsed
// edges in batches: separating the scattered array updates from the
// parsing lets the processor overlap their cache misses.
//
//mwvc:hotpath
func (k *chunk) countBatch(batch [][2]Vertex) {
	for _, e := range batch {
		k.deg[e[0]]++
		k.deg[e[1]]++
	}
	k.edges += int64(len(batch))
}

// setWeight stores one weight record of pass 1.
func (k *chunk) setWeight(line []byte, rec record, n int, own []float64) error {
	wt, err := weightOf(line, rec, n)
	if err != nil {
		return err
	}
	if own != nil {
		own[rec.v] = wt
		return nil
	}
	if k.weights == nil {
		k.weights = make([]float64, n)
		k.set = make([]uint64, (n+63)/64)
	}
	k.weights[rec.v] = wt
	k.set[rec.v/64] |= 1 << (rec.v % 64)
	return nil
}

// mergeWeights copies the chunk's weight records into dst. Called in chunk
// order, so for a vertex with records in several chunks the last one in
// file order wins, as in a serial read.
func (k *chunk) mergeWeights(dst []float64) {
	for i, word := range k.set {
		for ; word != 0; word &= word - 1 {
			v := i*64 + bits.TrailingZeros64(word)
			dst[v] = k.weights[v]
		}
	}
	k.weights, k.set = nil, nil
}

// layoutChunks turns the per-chunk degree counts into the CSR offsets and
// gives every chunk its own run of slots in each row: row v holds chunk 0's
// run, then chunk 1's, and so on. Pass 2 addresses each run from one of
// its two ends, which stays fixed, so no chunk reads a value another chunk
// moves. Chunk 0 uses its run's start, the row start (the offsets). An odd
// chunk uses its run's end, which is also the start of the even chunk
// after it: the two share one n-sized boundary array. The last chunk, when
// odd, uses the row end (the offsets again). That makes ⌊(P−1)/2⌋
// boundary arrays for P chunks, none for two.
func layoutChunks(c *CSRBuilder, ks []chunk) {
	n, p := c.n, len(ks)
	for i := 1; i+1 < p; i += 2 {
		ks[i].base = make([]uint32, n)
		ks[i+1].base, ks[i+1].up = ks[i].base, true
	}
	c.offsets = make([]uint32, n+1)
	var sum uint32
	for v := 0; v < n; v++ {
		c.offsets[v] = sum
		for i := range ks {
			sum += ks[i].deg[v]
			if i%2 == 1 && i+1 < p {
				ks[i].base[v] = sum
			}
		}
	}
	c.offsets[n] = sum
	c.neighbors = make([]Vertex, sum)
	ks[0].base, ks[0].up = c.offsets[:n], true
	if p%2 == 0 {
		ks[p-1].base = c.offsets[1:]
	}
}

// place is pass 2 over the chunk: it puts both slots of every edge into
// the chunk's runs of nbrs. The records passed pass 1, but they are checked
// again, so a source that changed between the passes fails cleanly.
// Lines starting with 'w' can only be weight records, which pass 1 has
// stored; pass 2 skips them unparsed.
//
//mwvc:hotpath
func (k *chunk) place(r io.ReaderAt, nbrs []Vertex) error {
	n := len(k.deg)
	k.win.reset(io.NewSectionReader(r, k.lo, k.hi-k.lo))
	queued := 0
	for {
		line, err := k.win.next()
		if err == io.EOF {
			return k.placeBatch(nbrs, k.batch[:queued])
		}
		if err != nil {
			return err
		}
		if len(line) > 0 && line[0] == 'w' {
			continue // a weight record: stored by pass 1
		}
		rec, err := parseLine(line)
		if err != nil {
			return err
		}
		if rec.kind != recEdge {
			continue
		}
		if uint32(rec.u) >= uint32(n) || uint32(rec.v) >= uint32(n) || rec.u == rec.v {
			return checkEdge(rec.u, rec.v, n)
		}
		k.batch[queued] = [2]Vertex{rec.u, rec.v}
		if queued++; queued == len(k.batch) {
			if err := k.placeBatch(nbrs, k.batch[:]); err != nil {
				return err
			}
			queued = 0
		}
	}
}

// placeBatch places a batch of edges (see countBatch).
//
//mwvc:hotpath
func (k *chunk) placeBatch(nbrs []Vertex, batch [][2]Vertex) error {
	for _, e := range batch {
		su, ok := k.slot(e[0])
		if !ok {
			return passExcessError(e[0])
		}
		sv, ok := k.slot(e[1])
		if !ok {
			return passExcessError(e[1])
		}
		nbrs[su] = e[1]
		nbrs[sv] = e[0]
	}
	k.placed += int64(len(batch))
	return nil
}

// slot claims the next free slot of the chunk's run in row v; ok is false
// when the run is already full.
func (k *chunk) slot(v Vertex) (s uint32, ok bool) {
	left := k.deg[v]
	if left == 0 {
		return 0, false
	}
	k.deg[v] = left - 1
	if k.up {
		return k.base[v] + left - 1, true
	}
	return k.base[v] - left, true
}
