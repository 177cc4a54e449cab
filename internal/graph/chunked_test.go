package graph

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/rng"
)

// messyEdgeList renders random records in the "mwvc-el 1" format with
// every line shape the readers accept: CR before some line ends, comment
// and blank lines (also before the header), tabs and runs of spaces, a
// comment line longer than a read window, vertex 0 weighted both near the
// start and at the very end, and no newline after the last line.
func messyEdgeList(seed uint64, n, records int) string {
	src := rng.New(seed)
	var sb strings.Builder
	end := func() {
		if src.Intn(4) == 0 {
			sb.WriteString("\r\n")
		} else {
			sb.WriteByte('\n')
		}
	}
	sb.WriteString("# written by a test")
	end()
	end()
	sb.WriteString("mwvc-el 1")
	end()
	fmt.Fprintf(&sb, "%d", n)
	end()
	fmt.Fprintf(&sb, "w 0 %g", 1+src.Float64())
	end()
	for i := 0; i < records; i++ {
		switch r := src.Intn(20); {
		case r == 0:
			sb.WriteString("# comment")
		case r == 1:
			sb.WriteString(" \t")
		case r == 2:
			fmt.Fprintf(&sb, "w %d %g", src.Intn(n), 0.5+10*src.Float64())
		case r == 3:
			fmt.Fprintf(&sb, "\tw  %d\t%g ", src.Intn(n), 0.5+10*src.Float64())
		case r == 4:
			u := src.Intn(n)
			fmt.Fprintf(&sb, "  e\t%d   %d", u, (u+1+src.Intn(n-1))%n)
		case r == 5 && i == records/2:
			sb.WriteString("# " + strings.Repeat("x", 3*windowBytes))
		default:
			u := src.Intn(n)
			fmt.Fprintf(&sb, "e %d %d", u, (u+1+src.Intn(n-1))%n)
		}
		end()
	}
	fmt.Fprintf(&sb, "w 0 %g", 20+src.Float64())
	return sb.String()
}

// messyCanonical writes a random graph in the canonical format, then ends
// every third line with CRLF, puts a comment before the header and every
// seventh record, and drops the final newline.
func messyCanonical(seed uint64, n, m int) string {
	var buf bytes.Buffer
	if err := Write(&buf, randomGraph(seed, n, m)); err != nil {
		panic(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	var sb strings.Builder
	sb.WriteString("# canonical\n")
	for i, line := range lines {
		if i > 2 && i%7 == 0 {
			sb.WriteString("# note\n")
		}
		sb.WriteString(line)
		if i%3 == 0 {
			sb.WriteByte('\r')
		}
		if i+1 < len(lines) {
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// readChunkedString runs the chunked reader over in with p chunks.
func readChunkedString(in string, p int) (*Graph, error) {
	return readChunked(strings.NewReader(in), int64(len(in)), p)
}

// assertIdentical fails unless a and b are the same graph array for
// array, weights compared bit for bit.
func assertIdentical(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("sizes differ: (%d,%d) vs (%d,%d)", a.NumVertices(), a.NumEdges(), b.NumVertices(), b.NumEdges())
	}
	for v := range a.weights {
		if math.Float64bits(a.weights[v]) != math.Float64bits(b.weights[v]) {
			t.Fatalf("weight of %d differs: %v vs %v", v, a.weights[v], b.weights[v])
		}
	}
	if !reflect.DeepEqual(a.EdgeEndpoints(), b.EdgeEndpoints()) {
		t.Fatal("edge ids or endpoints differ")
	}
	if !reflect.DeepEqual(a.offsets, b.offsets) || !reflect.DeepEqual(a.neighbors, b.neighbors) ||
		!reflect.DeepEqual(a.slotEdges, b.slotEdges) {
		t.Fatal("CSR arrays differ")
	}
}

// TestChunkedMatchesRead pins the chunked reader against Read at every
// forced chunk count from 1 to 8. A trailing comment of 0 to 39 bytes
// shifts the nominal split points across whole lines, so over the
// paddings every split point falls at every position of a record.
func TestChunkedMatchesRead(t *testing.T) {
	inputs := map[string]string{
		"edge-list": messyEdgeList(1, 40, 300),
		"canonical": messyCanonical(2, 50, 220),
		"tiny":      "mwvc-el 1\r\n3\r\nw 1 2\r\ne 0 1\r\nw 1 3\r\ne 0 2\u00a0\ne 1 2",
		"edgeless":  "mwvc-graph 1\n4 0\nw 2 7",
		"no-body":   "# only a header\nmwvc-el 1\n5",
	}
	for name, base := range inputs {
		for pad := 0; pad < 40; pad++ {
			in := base + "\n#" + strings.Repeat("-", pad)
			want, err := Read(strings.NewReader(in))
			if err != nil {
				t.Fatalf("%s pad %d: Read: %v", name, pad, err)
			}
			for p := 1; p <= 8; p++ {
				got, err := readChunkedString(in, p)
				if err != nil {
					t.Fatalf("%s pad %d, %d chunks: %v", name, pad, p, err)
				}
				assertIdentical(t, want, got)
			}
		}
	}
}

// TestChunkedLastWeightWins pins that when a vertex has weight records in
// several chunks, the last one in file order wins, as in a serial read.
func TestChunkedLastWeightWins(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("mwvc-el 1\n3\n")
	for i := 1; i <= 64; i++ {
		fmt.Fprintf(&sb, "w 2 %d\ne 0 1\nw 0 %d\n", i, 100+i)
	}
	in := sb.String()
	for p := 1; p <= 8; p++ {
		g, err := readChunkedString(in, p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(g.Weight(2)) != math.Float64bits(64) || math.Float64bits(g.Weight(0)) != math.Float64bits(164) {
			t.Fatalf("%d chunks: weights %v, %v; want the last records 64, 164", p, g.Weight(2), g.Weight(0))
		}
	}
}

// TestChunkedRejectsWhatReadRejects injects one or two bad lines into a
// valid input and pins, at every chunk count: Read rejects it too, and the
// error is the one-chunk error, the first in file order.
func TestChunkedRejectsWhatReadRejects(t *testing.T) {
	bad := []string{
		"e 1 x", "q 1 2", "e 1", "w 1 oops", "w 1 2 3", "e 0 0", "e 3 999",
		"w 999 1", "e 4294967297 2", "e -1 2", "w 1 -2", "w 2 +Inf", "e 1\u00a02",
		"e 1 2 3", "e 1 2x", "w 1\t2 3", "e 2147483648 1",
	}
	base := strings.Split(messyEdgeList(3, 30, 120), "\n")
	src := rng.New(4)
	for i, b := range bad {
		for trial := 0; trial < 6; trial++ {
			lines := append([]string(nil), base...)
			at := 4 + src.Intn(len(lines)-4)
			lines[at] = b
			if trial%2 == 1 {
				at2 := 4 + src.Intn(len(lines)-4)
				lines[at2] = bad[(i+1)%len(bad)]
			}
			in := strings.Join(lines, "\n")
			if _, err := Read(strings.NewReader(in)); err == nil {
				t.Fatalf("Read accepted %q", b)
			}
			_, first := readChunkedString(in, 1)
			if first == nil {
				t.Fatalf("one chunk accepted %q", b)
			}
			for p := 2; p <= 8; p++ {
				if _, err := readChunkedString(in, p); err == nil || err.Error() != first.Error() {
					t.Fatalf("%q with %d chunks: error %v, want the first in file order: %v", b, p, err, first)
				}
			}
		}
	}
	for _, in := range []string{
		"mwvc-graph 1\n3 2\ne 0 1\n",             // count mismatch
		"mwvc-graph 1\n3 1\ne 0 1\ne 1 2\n",      // count mismatch
		"mwvc-graph 1\n2 2\ne 0 1\n# dup\ne 1 0", // dedup mismatch
		"mwvc-el 1\n3 2\ne 0 1\n",                // el size line with m
	} {
		for p := 1; p <= 8; p++ {
			if _, err := readChunkedString(in, p); err == nil {
				t.Fatalf("%d chunks accepted %q", p, in)
			}
		}
	}
}

// failingReaderAt serves data but fails every read that reaches failAt.
type failingReaderAt struct {
	data   string
	failAt int64
}

var errDisk = errors.New("disk on fire")

func (f failingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off+int64(len(p)) > f.failAt {
		return 0, errDisk
	}
	return strings.NewReader(f.data).ReadAt(p, off)
}

func TestChunkedReportsReadErrors(t *testing.T) {
	in := messyEdgeList(5, 30, 2000)
	for _, failAt := range []int64{10, int64(len(in)) / 3, int64(len(in)) - 5} {
		for p := 1; p <= 8; p++ {
			_, err := readChunked(failingReaderAt{in, failAt}, int64(len(in)), p)
			if !errors.Is(err, errDisk) {
				t.Fatalf("fail at %d, %d chunks: error %v, want %v", failAt, p, err, errDisk)
			}
		}
	}
}

// TestLineWindow pins the window's line splitting against the rules the
// readers rely on: '\n' ends a line, CR stays in it, a last line needs no
// terminator, and a line longer than the window grows it.
func TestLineWindow(t *testing.T) {
	long := strings.Repeat("y", 2*windowBytes+3)
	in := "a\r\n\nb c\n" + long + "\nlast"
	var w lineWindow
	w.reset(strings.NewReader(in))
	var got []string
	for {
		line, err := w.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(line))
	}
	want := []string{"a\r", "", "b c", long, "last"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("lines %q, want %q", got, want)
	}
	if w.consumed != int64(len(in)) {
		t.Fatalf("consumed %d bytes, want %d", w.consumed, len(in))
	}
}
