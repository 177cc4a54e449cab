package graph_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// writePowerLawFile writes a preferential-attachment graph on n vertices
// with average degree about d and uniform weights in [1, 100), in the
// canonical format, and returns the file's path and size.
func writePowerLawFile(tb testing.TB, n, d int) (string, int64) {
	tb.Helper()
	g := gen.ApplyWeights(gen.PreferentialAttachment(1, n, d/2), 1, gen.UniformRange{Lo: 1, Hi: 100})
	path := filepath.Join(tb.TempDir(), "powerlaw.txt")
	f, err := os.Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	if err := graph.Write(f, g); err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		tb.Fatal(err)
	}
	return path, st.Size()
}

// BenchmarkOpenFile reads a half-million-edge power-law graph file (n =
// 131072, d = 8, about 10 MB), the instance shape of the file-to-cover
// path, through the chunked two-pass reader.
func BenchmarkOpenFile(b *testing.B) {
	path, size := writePowerLawFile(b, 131072, 8)
	b.SetBytes(size)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := graph.OpenFile(path); err != nil {
			b.Fatal(err)
		}
	}
}

// TestOpenFileAllocsIndependentOfSize pins that the reader's allocations
// are a fixed set of arrays and windows: OpenFile allocates as many times
// on a 500k-edge file as on a 10k-edge one, so no allocation happens per
// line or per record. (AllocsPerRun runs at GOMAXPROCS 1, so both files
// are read as one chunk.)
func TestOpenFileAllocsIndependentOfSize(t *testing.T) {
	allocs := func(n int) float64 {
		path, _ := writePowerLawFile(t, n, 8)
		return testing.AllocsPerRun(2, func() {
			if _, err := graph.OpenFile(path); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(2500), allocs(131072)
	if small != large {
		t.Fatalf("OpenFile allocates %v times on a 10k-edge file but %v times on a 500k-edge file", small, large)
	}
}
