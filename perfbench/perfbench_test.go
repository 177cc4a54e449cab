package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks that each named metric is emitted with its unit, that no op
// failed, and that the traced pass reproduced the untraced outputs.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			rep, err := run(context.Background(), config{workload: name, seed: 1, seconds: 0.05,
				trace: trace, size: "tiny", out: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if rep.Failed != 0 {
				t.Errorf("%s trace=%v: %d of %d ops failed: %v", name, trace, rep.Failed, rep.Attempted, rep.Failures)
			}
			if !trace && rep.Ops < minOps() {
				t.Errorf("%s: %d ops, want at least %d", name, rep.Ops, minOps())
			}
			res := rep.result()
			want := map[string]string{}
			if trace {
				for _, m := range perLayer {
					want[m.name] = m.unit
				}
			} else {
				for _, m := range endToEnd {
					want[m.name] = m.unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for k, unit := range want {
				m, ok := res.Metrics[k]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", name, trace, k, m, unit)
				}
			}
			if !trace {
				for _, k := range []string{"setup_s", "op_p50_ms", "op_p90_ms", "throughput_ops_s", "certified_ratio_mean", "alloc_mb_per_op"} {
					if res.Metrics[k].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", name, k, res.Metrics[k].Value)
					}
				}
			}
		}
	}
}

// TestSeedDeterminism checks that two runs on one seed produce the same
// per-op digest and deterministic means, and that another seed produces
// other instances without failures.
func TestSeedDeterminism(t *testing.T) {
	cfg := config{workload: "serve-mixed", seed: 7, seconds: 0.05, size: "tiny", out: t.TempDir()}
	var reps [3]*report
	for i := range reps {
		if i == 2 {
			cfg.seed = 8
		}
		rep, err := run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed != 0 {
			t.Fatalf("seed %d: %d ops failed: %v", cfg.seed, rep.Failed, rep.Failures)
		}
		reps[i] = rep
	}
	if reps[0].Digest != reps[1].Digest {
		t.Errorf("same seed, digests %s and %s", reps[0].Digest, reps[1].Digest)
	}
	for _, k := range []string{"certified_ratio_mean", "rounds_mean"} {
		if reps[0].EndToEnd[k] != reps[1].EndToEnd[k] {
			t.Errorf("same seed, %s %v and %v", k, reps[0].EndToEnd[k], reps[1].EndToEnd[k])
		}
	}
	if reps[0].Digest == reps[2].Digest {
		t.Errorf("seeds 7 and 8 gave the same digest")
	}
}

// tailSamples is the number of samples that lie strictly beyond the pct-th
// percentile of n samples under nearest-rank selection.
func tailSamples(n, pct int) int { return n - rank(n, pct) }

// TestTailRule pins the p90 sample-count rule: 100 ops leave ten samples
// beyond p90, 99 leave nine.
func TestTailRule(t *testing.T) {
	if got := minOps(); got != 100 {
		t.Fatalf("minOps() = %d, want 100", got)
	}
	for _, c := range []struct{ n, want int }{{100, 10}, {99, 9}, {101, 10}, {110, 11}, {1, 0}} {
		if got := tailSamples(c.n, tailPct); got != c.want {
			t.Errorf("tailSamples(%d, %d) = %d, want %d", c.n, tailPct, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if p50, p90 := percentile(xs, 50), percentile(xs, 90); p50 != 50 || p90 != 90 {
		t.Errorf("percentiles of 1..100: p50 %v, p90 %v, want 50 and 90", p50, p90)
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
}

// TestSelfTimes checks self-time arithmetic on a synthetic span tree with
// overlapping children and a child running past its parent's end.
func TestSelfTimes(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{Parent: -1, Name: "op", Start: ms(0), End: ms(100)},
		{Parent: 0, Name: "a", Start: ms(10), End: ms(40)},
		{Parent: 0, Name: "b", Start: ms(30), End: ms(60)}, // overlaps a
		{Parent: 1, Name: "a.1", Start: ms(15), End: ms(20)},
		{Parent: 0, Name: "c", Start: ms(90), End: ms(120)}, // clipped at 100
		{Parent: -1, Name: "other", Start: ms(0), End: ms(5)},
	}
	// op: 100 − |[10,60] ∪ [90,100]| = 100 − 60.
	want := []time.Duration{ms(40), ms(25), ms(30), ms(5), ms(30), ms(5)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

// TestCompareRefusesOtherMachine checks that records from machines with
// different fingerprints are not compared, and that same-code same-seed
// records must agree exactly.
func TestCompareRefusesOtherMachine(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rep report) string {
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := report{Fingerprint: fingerprint{NProc: 2, GOMAXPROCS: 2, CPUModel: "x", GoVersion: "go1.24.0", Source: "s"},
		Workload: "dense-mpc", Seed: 1, Size: "full", Digest: "d",
		EndToEnd: map[string]float64{"op_p50_ms": 10, "certified_ratio_mean": 4, "rounds_mean": 5}}
	other := base
	other.Fingerprint.CPUModel = "y"
	drifted := base
	drifted.Digest = "e"
	a, b, c := write("a.json", base), write("b.json", other), write("c.json", drifted)
	if code := compareMain([]string{a, b}, io.Discard); code != 2 {
		t.Errorf("different CPU: exit %d, want 2", code)
	}
	if code := compareMain([]string{a, a}, io.Discard); code != 0 {
		t.Errorf("identical records: exit %d, want 0", code)
	}
	if code := compareMain([]string{a, c}, io.Discard); code != 1 {
		t.Errorf("same code and seed, other digest: exit %d, want 1", code)
	}
}

// TestServeMixIsSeedIndependent checks that the seed reorders serve-mixed's
// requests and picks their graphs, but does not change how many requests of
// each kind a block holds.
func TestServeMixIsSeedIndependent(t *testing.T) {
	hashes := make([]string, smallGraphs+1)
	for i := range hashes {
		hashes[i] = fmt.Sprintf("h%d", i)
	}
	kinds := func(seed uint64) map[string]int {
		seq, err := sequence(rand.New(rand.NewPCG(seed, 0)), 0, sizesByName["full"].serveOps, hashes)
		if err != nil {
			t.Fatal(err)
		}
		m := map[string]int{}
		for _, o := range seq {
			m[fmt.Sprintf("upload=%v fresh=%v large=%v algo=%s improve=%v repeat=%v",
				o.upload, o.fresh, o.graph == smallGraphs, o.algo, o.improve, o.repeat)]++
		}
		return m
	}
	want := kinds(1)
	for seed := uint64(2); seed <= 50; seed++ {
		if got := kinds(seed); !maps.Equal(got, want) {
			t.Fatalf("seed %d mix %v, seed 1 mix %v", seed, got, want)
		}
	}
}
