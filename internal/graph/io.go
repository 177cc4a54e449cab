package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
)

// Two line-oriented text formats are supported (specified in
// docs/FORMATS.md):
//
//	mwvc-graph 1          canonical format, written by Write
//	<n> <m>
//	w <v> <weight>        (one line per vertex whose weight differs from 1)
//	e <u> <v>             (one line per undirected edge)
//
//	mwvc-el 1             streaming edge-list format, written by WriteEdgeList
//	<n>
//	w <v> <weight>        (w and e records in any order)
//	e <u> <v>
//
// The canonical format declares the exact post-dedup edge count up front and
// Read enforces it; the edge-list format omits it so producers can stream
// edges without knowing the final count (duplicates are merged on read).
// Weights are written with full float64 round-trip precision. Both formats
// are deliberately simple so instances can be produced or inspected with
// standard text tools.

const (
	formatHeader   = "mwvc-graph 1"
	elFormatHeader = "mwvc-el 1"
)

// Write serializes g in the canonical "mwvc-graph 1" text format. The output
// is deterministic — header, weights in vertex order, edges in edge-id order
// — which is what makes it usable as the content-hash preimage of the serve
// store. The writer allocates one small scratch buffer regardless of graph
// size.
func Write(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	buf := make([]byte, 0, 64)
	buf = append(buf, formatHeader...)
	buf = append(buf, '\n')
	buf = strconv.AppendInt(buf, int64(g.NumVertices()), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(g.NumEdges()), 10)
	buf = append(buf, '\n')
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	if err := writeRecords(bw, g, buf); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteEdgeList serializes g in the streaming "mwvc-el 1" text format (no
// edge count in the header). Readable back by Read and ReadStream.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	buf := make([]byte, 0, 64)
	buf = append(buf, elFormatHeader...)
	buf = append(buf, '\n')
	buf = strconv.AppendInt(buf, int64(g.NumVertices()), 10)
	buf = append(buf, '\n')
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	if err := writeRecords(bw, g, buf); err != nil {
		return err
	}
	return bw.Flush()
}

// writeRecords emits the weight and edge records shared by both formats.
func writeRecords(bw *bufio.Writer, g *Graph, buf []byte) error {
	for v := 0; v < g.NumVertices(); v++ {
		if wt := g.Weight(Vertex(v)); wt != 1 {
			buf = append(buf[:0], 'w', ' ')
			buf = strconv.AppendInt(buf, int64(v), 10)
			buf = append(buf, ' ')
			buf = strconv.AppendFloat(buf, wt, 'g', -1, 64)
			buf = append(buf, '\n')
			if _, err := bw.Write(buf); err != nil {
				return err
			}
		}
	}
	ep := g.EdgeEndpoints()
	for i := 0; i < len(ep); i += 2 {
		buf = append(buf[:0], 'e', ' ')
		buf = strconv.AppendInt(buf, int64(ep[i]), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(ep[i+1]), 10)
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

const (
	// windowBytes is the initial read window of every reader: Read's
	// single streaming window and each chunk's window in ReadStream.
	windowBytes = 64 << 10
	// maxLineBytes caps one input line; a window doubles only for a line
	// that does not fit, up to this size.
	maxLineBytes = 64 << 20
)

// lineWindow yields the '\n'-separated lines of a stream through one
// reusable buffer. The buffer starts at windowBytes and grows only for a
// line longer than it; a line that does not fit in maxLineBytes fails with
// bufio.ErrTooLong. A returned line stays valid until the next call.
type lineWindow struct {
	src        io.Reader
	buf        []byte
	start, end int // unread input is buf[start:end]
	eof        bool
	consumed   int64 // stream bytes handed out so far, terminators included
}

// reset points the window at a new stream, keeping its buffer.
func (w *lineWindow) reset(src io.Reader) {
	if w.buf == nil {
		w.buf = make([]byte, windowBytes)
	}
	w.src, w.start, w.end, w.eof, w.consumed = src, 0, 0, false, 0
}

// next returns the next line without its '\n' (a final line needs none),
// or io.EOF after the last one.
func (w *lineWindow) next() ([]byte, error) {
	for scanned := 0; ; {
		data := w.buf[w.start:w.end]
		if i := bytes.IndexByte(data[scanned:], '\n'); i >= 0 {
			i += scanned
			w.start += i + 1
			w.consumed += int64(i + 1)
			return data[:i], nil
		}
		scanned = len(data)
		if w.eof {
			if len(data) == 0 {
				return nil, io.EOF
			}
			w.start = w.end
			w.consumed += int64(len(data))
			return data, nil
		}
		if err := w.fill(); err != nil {
			return nil, err
		}
	}
}

// fill reads more input behind the unread bytes, first sliding them to
// the front of the buffer, and doubling the buffer when one line fills it.
func (w *lineWindow) fill() error {
	if w.start > 0 {
		w.end = copy(w.buf, w.buf[w.start:w.end])
		w.start = 0
	}
	if w.end == len(w.buf) {
		if len(w.buf) >= maxLineBytes {
			return bufio.ErrTooLong
		}
		grown := make([]byte, min(2*len(w.buf), maxLineBytes))
		copy(grown, w.buf[:w.end])
		w.buf = grown
	}
	// Like bufio.Scanner, give up on a reader that keeps returning nothing.
	for range 100 {
		n, err := w.src.Read(w.buf[w.end:])
		w.end += n
		if err == io.EOF {
			w.eof = true
			return nil
		}
		if err != nil || n > 0 {
			return err
		}
	}
	return io.ErrNoProgress
}

// header is what a graph file's first two content lines declare. m is -1
// for the edge-list format, which declares no edge count.
type header struct {
	n, m int
}

// readHeader consumes the format line and the size line from w, skipping
// the blank and '#' comment lines around them, and validates both.
func readHeader(w *lineWindow) (header, error) {
	content := func() ([]byte, error) {
		for {
			line, err := w.next()
			if err != nil {
				return nil, err
			}
			if b := bytes.TrimSpace(line); len(b) != 0 && b[0] != '#' {
				return b, nil
			}
		}
	}
	hdr, err := content()
	if err == io.EOF {
		return header{}, fmt.Errorf("graph: empty input")
	}
	if err != nil {
		return header{}, err
	}
	var haveM bool
	switch {
	case bytes.Equal(hdr, []byte(formatHeader)):
		haveM = true
	case bytes.Equal(hdr, []byte(elFormatHeader)):
		haveM = false
	default:
		return header{}, fmt.Errorf("graph: bad header %q, want %q or %q", hdr, formatHeader, elFormatHeader)
	}
	sizes, err := content()
	if err == io.EOF {
		return header{}, fmt.Errorf("graph: missing size line")
	}
	if err != nil {
		return header{}, err
	}
	var f0, f1, f2 []byte
	nf, err := splitFields3(sizes, &f0, &f1, &f2)
	if err != nil {
		return header{}, fmt.Errorf("graph: bad size line %q", sizes)
	}
	var n, m int64
	var ok bool
	if haveM {
		if nf != 2 {
			return header{}, fmt.Errorf("graph: bad size line %q, want \"<n> <m>\"", sizes)
		}
		if n, ok = parseInt(f0); !ok {
			return header{}, fmt.Errorf("graph: bad size line %q", sizes)
		}
		if m, ok = parseInt(f1); !ok {
			return header{}, fmt.Errorf("graph: bad size line %q", sizes)
		}
	} else {
		if nf != 1 {
			return header{}, fmt.Errorf("graph: bad size line %q, want \"<n>\"", sizes)
		}
		if n, ok = parseInt(f0); !ok {
			return header{}, fmt.Errorf("graph: bad size line %q", sizes)
		}
	}
	if n < 0 || m < 0 {
		return header{}, fmt.Errorf("graph: negative sizes in %q", sizes)
	}
	// Vertex ids are int32, so a header declaring more vertices than int32
	// can address is unusable — and sizing builder arrays from it would turn
	// a hostile one-line header into a multi-gigabyte allocation.
	if n > math.MaxInt32 {
		return header{}, fmt.Errorf("graph: vertex count %d exceeds the int32 id space", n)
	}
	if !haveM {
		m = -1
	}
	return header{n: int(n), m: int(m)}, nil
}

// recKind classifies one body line.
type recKind uint8

const (
	recSkip   recKind = iota // blank or '#' comment
	recEdge                  // e <u> <v>
	recWeight                // w <v> <weight>
)

// record is one parsed body line. Vertex ids fit int32 but are not yet
// checked against n. A weight record carries its weight field unparsed:
// only the pass that stores weights pays for the float conversion.
type record struct {
	kind recKind
	u, v Vertex // edge endpoints; v is the vertex of a weight record
	wt   []byte
}

// parseLine is the one record parser of both reading paths. It takes a
// body line without its '\n'. The lines that make up almost all of every
// file, "e <u> <v>" and "w <v> <weight>" with ASCII digits for ids, single
// spaces and no other whitespace, are decoded here in one scan; every
// other line (comments, blank lines, tabs, CR, runs of spaces, anything
// malformed) goes through parseGeneral, and the fast path returns exactly
// what parseGeneral would for the lines it takes.
//
//mwvc:hotpath
func parseLine(line []byte) (record, error) {
	if len(line) >= 5 && line[1] == ' ' && (line[0] == 'e' || line[0] == 'w') {
		a, i, ok := leadingVertex(line, 2)
		if ok && i+1 < len(line) && line[i] == ' ' {
			if line[0] == 'w' {
				if wt := line[i+1:]; plainField(wt) {
					return record{kind: recWeight, v: a, wt: wt}, nil
				}
			} else if b, j, ok := leadingVertex(line, i+1); ok && j == len(line) {
				return record{kind: recEdge, u: a, v: b}, nil
			}
		}
	}
	return parseGeneral(line)
}

// plainField reports whether b is made only of printable ASCII other than
// space, so that trimming and field splitting would leave it whole.
//
//mwvc:hotpath
func plainField(b []byte) bool {
	for _, c := range b {
		if c <= ' ' || c > '~' {
			return false
		}
	}
	return true
}

// leadingVertex decodes the ASCII digits at line[i:] and returns the value
// and the index just past them. ok is false when there are no digits or
// the value does not fit int32; parseGeneral then decides.
//
//mwvc:hotpath
func leadingVertex(line []byte, i int) (v Vertex, end int, ok bool) {
	start := i
	var x int64
	for ; i < len(line); i++ {
		d := line[i] - '0'
		if d > 9 {
			break
		}
		if x = x*10 + int64(d); x > math.MaxInt32 {
			return 0, i, false
		}
	}
	return Vertex(x), i, i > start
}

// parseGeneral parses one body line by the full rules: surrounding
// whitespace is trimmed, blank and '#' lines are skipped, and the rest must
// be three fields separated by spaces or tabs.
func parseGeneral(line []byte) (record, error) {
	b := bytes.TrimSpace(line)
	if len(b) == 0 || b[0] == '#' {
		return record{}, nil
	}
	var f0, f1, f2 []byte
	nf, err := splitFields3(b, &f0, &f1, &f2)
	if err != nil || nf != 3 {
		return record{}, fmt.Errorf("graph: bad record %q", b)
	}
	switch {
	case len(f0) == 1 && f0[0] == 'e':
		// Vertex ids must fit int32 before the cast; ids beyond that would
		// silently truncate. The [0, n) range check is the caller's.
		u, ok1 := parseVertex(f1)
		v, ok2 := parseVertex(f2)
		if !ok1 || !ok2 {
			return record{}, fmt.Errorf("graph: bad endpoint in %q", b)
		}
		return record{kind: recEdge, u: u, v: v}, nil
	case len(f0) == 1 && f0[0] == 'w':
		v, ok := parseVertex(f1)
		if !ok {
			return record{}, fmt.Errorf("graph: bad vertex in %q", b)
		}
		return record{kind: recWeight, v: v, wt: f2}, nil
	default:
		return record{}, fmt.Errorf("graph: unknown record %q", b)
	}
}

// weightOf parses the weight of a weight record read from line and checks
// its vertex against n. Weights must also be positive and finite, which
// the builders check at Build.
func weightOf(line []byte, rec record, n int) (float64, error) {
	wt, err := strconv.ParseFloat(string(rec.wt), 64)
	if err != nil {
		return 0, fmt.Errorf("graph: bad weight in %q: %w", bytes.TrimSpace(line), err)
	}
	if rec.v < 0 || int(rec.v) >= n {
		return 0, fmt.Errorf("graph: weight vertex %d out of range [0,%d)", rec.v, n)
	}
	return wt, nil
}

// checkEdge reports why (u, v) is not an edge of a graph on n vertices,
// or nil when it is one.
func checkEdge(u, v Vertex, n int) error {
	if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
		return fmt.Errorf("graph: edge (%d,%d) has endpoint out of range [0,%d)", u, v, n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at vertex %d", u)
	}
	return nil
}

// declaredEdgesError reports a canonical-format file whose edge records do
// not number the edge count its header declares.
func declaredEdgesError(h header, found int64) error {
	return fmt.Errorf("graph: header declares %d edges, found %d", h.m, found)
}

// checkBuiltEdges enforces the canonical format's edge count once more on
// the built graph, after duplicate records have merged.
func checkBuiltEdges(h header, g *Graph) error {
	if h.m >= 0 && g.NumEdges() != h.m {
		return fmt.Errorf("graph: %d edges after dedup, header declares %d", g.NumEdges(), h.m)
	}
	return nil
}

// splitFields3 splits line on ASCII whitespace into at most three fields
// without allocating. It returns the field count, or an error for more than
// three fields.
func splitFields3(line []byte, f0, f1, f2 *[]byte) (int, error) {
	n := 0
	i := 0
	for i < len(line) {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		if i >= len(line) {
			break
		}
		start := i
		for i < len(line) && line[i] != ' ' && line[i] != '\t' {
			i++
		}
		switch n {
		case 0:
			*f0 = line[start:i]
		case 1:
			*f1 = line[start:i]
		case 2:
			*f2 = line[start:i]
		default:
			return n, fmt.Errorf("too many fields")
		}
		n++
	}
	return n, nil
}

// parseInt parses a decimal integer (with optional leading '-') from b
// without allocating.
func parseInt(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	i := 0
	if b[0] == '-' {
		neg = true
		i = 1
		if len(b) == 1 {
			return 0, false
		}
	}
	var x int64
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		if x > (1<<62)/10 {
			return 0, false
		}
		x = x*10 + int64(c-'0')
	}
	if neg {
		x = -x
	}
	return x, true
}

// parseVertex parses a decimal vertex id that fits int32. Negative ids
// parse; the range check against n is the caller's.
func parseVertex(b []byte) (Vertex, bool) {
	x, ok := parseInt(b)
	if !ok || x > math.MaxInt32 || x < math.MinInt32 {
		return 0, false
	}
	return Vertex(x), true
}

// Read parses a graph in either text format from a one-shot stream. It
// reads through one windowBytes window and buffers the edge list in a
// Builder, so it works for non-seekable sources (network bodies, pipes);
// for on-disk instances prefer ReadStream or OpenFile, which build the CSR
// arrays in two parallel passes with no edge-list buffer.
func Read(r io.Reader) (*Graph, error) {
	var w lineWindow
	w.reset(r)
	h, err := readHeader(&w)
	if err != nil {
		return nil, err
	}
	b := NewBuilder(h.n)
	for {
		line, err := w.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		rec, err := parseLine(line)
		if err != nil {
			return nil, err
		}
		switch rec.kind {
		case recEdge:
			b.AddEdge(rec.u, rec.v)
		case recWeight:
			wt, err := weightOf(line, rec, h.n)
			if err != nil {
				return nil, err
			}
			b.SetWeight(rec.v, wt)
		}
	}
	if h.m >= 0 && b.NumPendingEdges() != h.m {
		return nil, declaredEdgesError(h, int64(b.NumPendingEdges()))
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	if err := checkBuiltEdges(h, g); err != nil {
		return nil, err
	}
	return g, nil
}

// OpenFile reads a graph file (either text format) through ReadStream.
func OpenFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return ReadStream(f, st.Size())
}
