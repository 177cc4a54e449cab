// Command perfbench is the repository's end-to-end benchmark. It drives the
// program through the entry points its users call — mwvc.Solve on
// in-memory graphs (dense-mpc), graph file to verified cover (file-sparse),
// and HTTP traffic against the solve service (serve-mixed) — checks every
// output independently, and prints the end-to-end metrics by name with
// their units. With --trace 1 it runs a second, traced pass over the same
// ops that calls each layer's public functions one by one and prints the
// per-layer metrics instead. See README.md for the workloads, the metric
// table and how to run it.
//
//	perfbench --workload dense-mpc --seed 1 --seconds 20 --trace 0
//	perfbench compare A.json B.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A record with the machine
// fingerprint, the per-op digest and every metric is written under --out.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 3

// op is one measured operation and what the benchmark checked about it.
type op struct {
	latency time.Duration
	// check verifies the op's output independently; it runs after the
	// block, outside the timed phase, and fills the solution fields. Nil
	// when the op already failed.
	check  func(*op) error
	solve  bool // produced a solution: counted in the ratio and rounds means
	ratio  float64
	rounds int
	digest [2]uint64 // Float64bits(weight), Float64bits(bound) for solves
	err    error
}

func (p *op) setSolution(weight, bound, ratio float64, rounds int) {
	p.solve, p.ratio, p.rounds = true, ratio, rounds
	p.digest = [2]uint64{math.Float64bits(weight), math.Float64bits(bound)}
}

// workload runs one fixed, seed-determined block of ops at a time.
type workload interface {
	// prepare runs untimed before every block.
	prepare() error
	// run executes the block once and returns its ops in sequence order.
	// On the traced pass tr is non-nil, base numbers the ops for their
	// spans, and layer samples are added to ls.
	run(ctx context.Context, tr *tracer, base int, ls samples) []op
	close()
}

// sizes are the instance dimensions of every workload: the command always
// runs "full"; the smoke tests run "tiny".
type sizes struct {
	denseN                   int
	denseD                   float64
	fileN                    int
	fileD                    float64
	serveSmallN, serveLargeN int
	serveSmallD, serveLargeD float64
	serveOps                 int // requests per client per block
}

var sizesByName = map[string]sizes{
	"full": {denseN: 16000, denseD: 128, fileN: 131072, fileD: 8,
		serveSmallN: 4096, serveSmallD: 8, serveLargeN: 16384, serveLargeD: 24, serveOps: 64},
	"tiny": {denseN: 600, denseD: 40, fileN: 2048, fileD: 8,
		serveSmallN: 256, serveSmallD: 8, serveLargeN: 1024, serveLargeD: 16, serveOps: 64},
}

var workloadNames = []string{"dense-mpc", "file-sparse", "serve-mixed"}

func newWorkload(ctx context.Context, name string, seed uint64, sz sizes, dir string) (workload, error) {
	switch name {
	case "dense-mpc":
		return newDense(ctx, seed, sz)
	case "file-sparse":
		return newFile(ctx, seed, sz, dir)
	case "serve-mixed":
		return newServe(ctx, seed, sz)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// endToEnd lists the metrics of an untraced run, in print order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"throughput_ops_s", "ops/s"},
	{"certified_ratio_mean", "ratio"},
	{"rounds_mean", "rounds"},
	{"alloc_mb_per_op", "MB"},
}

// perLayer lists the metrics of a traced run: each is reduced from the
// samples its layer recorded under the same name; a layer the workload
// does not exercise reports 0.
var perLayer = []struct {
	name, unit string
	agg        agg
}{
	{"graph.open_ms", "ms", aggMedian},
	{"graph.open_mb_s", "MB/s", aggMedian},
	{"graph.open_alloc_mb", "MB", aggMedian},
	{"reduce.ms", "ms", aggMedian},
	{"reduce.vertices_removed_frac", "fraction", aggMean},
	{"reduce.edges_removed_frac", "fraction", aggMean},
	{"reduce.pendant", "count", aggMean},
	{"reduce.domination", "count", aggMean},
	{"reduce.lift_ms", "ms", aggMedian},
	{"solve.ms.mpc", "ms", aggMedian},
	{"solve.ms.mpc-compress", "ms", aggMedian},
	{"solve.ms.pdfast", "ms", aggMedian},
	{"core.phases", "count", aggMean},
	{"core.phase_ms", "ms", aggMedian},
	{"core.final_phase_ms", "ms", aggMedian},
	{"core.round_gap_ms", "ms", aggMedian},
	{"core.final_phase_edges", "count", aggMean},
	{"core.alpha", "ratio", aggMean},
	{"compress.local_rounds_per_round", "rounds", aggMean},
	{"compress.splits", "count", aggMean},
	{"compress.fallback_frac", "fraction", aggMean},
	{"mpc.total_words", "words", aggMean},
	{"mpc.total_messages", "count", aggMean},
	{"mpc.max_resident_words", "words", aggMean},
	{"mpc.max_recv_words", "words", aggMean},
	{"improve.ms", "ms", aggMedian},
	{"improve.steps", "count", aggMean},
	{"improve.converged_frac", "fraction", aggMean},
	{"improve.weight_removed_frac", "fraction", aggMean},
	{"verify.ms", "ms", aggMedian},
	{"serve.upload_ms_p50", "ms", aggMedian},
	{"serve.solve_req_ms_p50", "ms", aggMedian},
	{"serve.queue_ms_p50", "ms", aggMedian},
	{"serve.server_solve_ms_p50", "ms", aggMedian},
	{"serve.overhead_ms_p50", "ms", aggMedian},
	{"serve.cache_hit_frac", "fraction", aggMean},
	{"serve.coalesced_frac", "fraction", aggMean},
	{"serve.rejected_frac", "fraction", aggMean},
	{"serve.response_bytes_mean", "bytes", aggMean},
	{"trace.overhead_frac", "fraction", aggMean},
}

// pass is the outcome of running whole blocks of a workload.
type pass struct {
	ops      []op
	blockLen int
	blocks   int
	timed    time.Duration   // sum of block wall times
	blockDur []time.Duration // wall time of each block
	alloc    uint64          // TotalAlloc growth over the timed blocks
	ref      [][2]uint64     // per-op digest every block must reproduce
	failed   int
	failures []string // the first few failure messages
}

// measure runs blocks until the timed phase reaches seconds and at least
// atLeast ops completed — or, when blocks > 0, exactly that many blocks.
// Every block must reproduce ref (block 0's digest when ref is nil) bit for
// bit; a differing op counts as failed.
func measure(ctx context.Context, w workload, tr *tracer, ls samples, seconds float64, atLeast, blocks int, ref [][2]uint64) (*pass, error) {
	p := &pass{ref: ref}
	budget := time.Duration(seconds * float64(time.Second))
	for b := 0; ; b++ {
		if blocks > 0 && b == blocks || blocks == 0 && b > 0 && p.timed >= budget && len(p.ops) >= atLeast {
			return p, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := w.prepare(); err != nil {
			return nil, err
		}
		// Every block starts from a collected heap, as a fresh process
		// would, so garbage from set-up or earlier blocks does not time a
		// collection into this one.
		runtime.GC()
		a0 := totalAlloc()
		start := time.Now()
		ops := w.run(ctx, tr, len(p.ops), ls)
		dur := time.Since(start)
		p.timed += dur
		p.blockDur = append(p.blockDur, dur)
		p.alloc += totalAlloc() - a0
		for i := range ops {
			o := &ops[i]
			if o.err == nil {
				o.err = o.check(o)
			}
			o.check = nil // release the op's output
			if p.ref == nil {
				continue
			}
			if o.err == nil && o.digest != p.ref[i] {
				o.err = fmt.Errorf("output bits differ from the reference (weight/bound %016x/%016x, want %016x/%016x)",
					o.digest[0], o.digest[1], p.ref[i][0], p.ref[i][1])
			}
		}
		if p.ref == nil {
			p.ref = make([][2]uint64, len(ops))
			for i := range ops {
				p.ref[i] = ops[i].digest
			}
		}
		for i := range ops {
			if ops[i].err != nil {
				p.failed++
				if len(p.failures) < 5 {
					p.failures = append(p.failures, fmt.Sprintf("block %d op %d: %v", b, i, ops[i].err))
				}
			}
		}
		p.ops = append(p.ops, ops...)
		p.blockLen, p.blocks = len(ops), b+1
	}
}

// segments splits the pass into runs of consecutive blocks that each hold
// at least atLeast ops; a remainder too short to stand alone joins the last
// segment. It returns each segment's op latencies in milliseconds and its
// wall time.
func (p *pass) segments(atLeast int) (lat [][]float64, dur []time.Duration) {
	per := (atLeast + p.blockLen - 1) / p.blockLen // blocks per segment
	for b := 0; b < p.blocks; {
		end := b + per
		if p.blocks-end < per {
			end = p.blocks
		}
		var l []float64
		var d time.Duration
		for i := b; i < end; i++ {
			d += p.blockDur[i]
			for _, o := range p.ops[i*p.blockLen : (i+1)*p.blockLen] {
				l = append(l, ms(o.latency))
			}
		}
		lat, dur = append(lat, l), append(dur, d)
		b = end
	}
	return lat, dur
}

// timing reduces a pass's latencies: each of p50, p90 and throughput is
// computed per segment of at least atLeast ops (with atLeast = minOps(),
// every segment's p90 has ten samples beyond it), and the median over
// segments is reported. A noise
// burst on the machine then moves one segment, not the result.
func (p *pass) timing(atLeast int) (p50, p90, throughput float64) {
	lat, dur := p.segments(atLeast)
	var p50s, p90s, tps []float64
	for i, l := range lat {
		p50s = append(p50s, percentile(l, 50))
		p90s = append(p90s, percentile(l, tailPct))
		tps = append(tps, float64(len(l))/dur[i].Seconds())
	}
	return percentile(p50s, 50), percentile(p90s, 50), percentile(tps, 50)
}

// digest hashes the per-op (weight bits, bound bits) of one block.
func (p *pass) digest() string {
	h := sha256.New()
	for _, d := range p.ref {
		fmt.Fprintf(h, "%016x%016x\n", d[0], d[1])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// endToEndMetrics reduces an untraced pass. The certified-ratio and rounds
// means are taken over block 0, whose outputs every later block reproduced,
// so they are exact functions of the seed.
func (p *pass) endToEndMetrics(setup float64) map[string]float64 {
	p50, p90, throughput := p.timing(minOps())
	var ratios, rounds []float64
	for _, o := range p.ops[:p.blockLen] {
		if o.solve {
			ratios = append(ratios, o.ratio)
			rounds = append(rounds, float64(o.rounds))
		}
	}
	return map[string]float64{
		"setup_s":              setup,
		"op_p50_ms":            p50,
		"op_p90_ms":            p90,
		"throughput_ops_s":     throughput,
		"certified_ratio_mean": mean(ratios),
		"rounds_mean":          mean(rounds),
		"alloc_mb_per_op":      float64(p.alloc) / 1e6 / float64(len(p.ops)),
	}
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	size     string
	out      string
}

// report is the record of one run, written under --out/results.
type report struct {
	Fingerprint fingerprint        `json:"fingerprint"`
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Size        string             `json:"size"`
	Seconds     float64            `json:"seconds"`
	Trace       bool               `json:"trace"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	FailedFrac  float64            `json:"failed_frac"`
	Ops         int                `json:"ops"`
	Blocks      int                `json:"blocks"`
	Digest      string             `json:"digest"`
	Failures    []string           `json:"failures,omitempty"`
	EndToEnd    map[string]float64 `json:"end_to_end"`
	PerLayer    map[string]float64 `json:"per_layer,omitempty"`
	SpanFile    string             `json:"span_file,omitempty"`
}

// run sets the workload up setupRepeats times, measures the untraced pass
// and, with cfg.trace, the traced pass over the same blocks.
func run(ctx context.Context, cfg config) (*report, error) {
	sz, ok := sizesByName[cfg.size]
	if !ok {
		return nil, fmt.Errorf("unknown size %q (have full, tiny)", cfg.size)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	rep := &report{Fingerprint: machine(), Workload: cfg.workload, Seed: cfg.seed,
		Size: cfg.size, Seconds: cfg.seconds, Trace: cfg.trace}

	var w workload
	var setups []float64
	for range setupRepeats {
		start := time.Now()
		next, err := newWorkload(ctx, cfg.workload, cfg.seed, sz, cfg.out)
		if err != nil {
			if w != nil {
				w.close()
			}
			return nil, fmt.Errorf("setting up %s: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if w != nil {
			w.close()
		}
		w = next
	}
	defer w.close()

	seconds, need := cfg.seconds, minOps()
	if cfg.trace {
		seconds, need = seconds/2, need/2
	}
	plain, err := measure(ctx, w, nil, nil, seconds, need, 0, nil)
	if err != nil {
		return nil, err
	}
	rep.EndToEnd = plain.endToEndMetrics(percentile(setups, 50))
	rep.Ops, rep.Blocks, rep.Digest = len(plain.ops), plain.blocks, plain.digest()
	rep.Attempted, rep.Failed, rep.Failures = len(plain.ops), plain.failed, plain.failures

	if cfg.trace {
		tr, ls := newTracer(), samples{}
		traced, err := measure(ctx, w, tr, ls, 0, 0, plain.blocks, plain.ref)
		if err != nil {
			return nil, err
		}
		untraced, _, _ := plain.timing(need)
		tracedP50, _, _ := traced.timing(need)
		ls.add("trace.overhead_frac", tracedP50/untraced-1)
		rep.PerLayer = make(map[string]float64, len(perLayer))
		for _, m := range perLayer {
			rep.PerLayer[m.name] = finite(m.agg.of(ls[m.name]))
		}
		rep.Attempted += len(traced.ops)
		rep.Failed += traced.failed
		rep.Failures = append(rep.Failures, traced.failures...)
		rep.SpanFile = filepath.Join(cfg.out, fmt.Sprintf("spans-%s-s%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.dump(rep.SpanFile); err != nil {
			return nil, err
		}
	}
	rep.FailedFrac = frac(rep.Failed, rep.Attempted)
	return rep, nil
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (rep *report) result() result {
	res := result{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metric{}}
	if rep.Trace {
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{rep.PerLayer[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{rep.EndToEnd[m.name], m.unit}
		}
	}
	return res
}

// print writes the human-readable summary.
func (rep *report) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  size %s  ops %d in %d blocks  digest %.16s\n",
		rep.Workload, rep.Seed, rep.Size, rep.Ops, rep.Blocks, rep.Digest)
	fp := rep.Fingerprint
	fmt.Fprintf(w, "machine  nproc %d  GOMAXPROCS %d  %s  %s  commit %s  source %.12s\n",
		fp.NProc, fp.GOMAXPROCS, fp.CPUModel, fp.GoVersion, fp.Commit, fp.Source)
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", m.name, rep.EndToEnd[m.name], m.unit)
	}
	fmt.Fprintf(w, "  %-34s %14.6g fraction (%d of %d ops)\n", "failed_frac", rep.FailedFrac, rep.Failed, rep.Attempted)
	if rep.PerLayer != nil {
		for _, m := range perLayer {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", m.name, rep.PerLayer[m.name], m.unit)
		}
	}
	for _, f := range rep.Failures {
		fmt.Fprintln(w, "  FAILED", f)
	}
}

// save writes the run record under dir/results.
func (rep *report) save(dir string) (string, error) {
	dir = filepath.Join(dir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	trace := 0
	if rep.Trace {
		trace = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-s%d-t%d-%d.json", rep.Workload, rep.Seed, trace, time.Now().UnixNano()))
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	cfg := config{size: "full"}
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed; every instance and request sequence derives from it")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "timed phase length in seconds (a run also completes at least 100 ops)")
	trace := fs.Int("trace", 0, "1: add a traced pass over the same ops and print per-layer metrics")
	fs.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for run records, span dumps and instance files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	cfg.trace = *trace == 1
	ctx := context.Background()
	rep, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep.print(stdout)
	path, err := rep.save(cfg.out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: saving run record:", err)
		return 1
	}
	fmt.Fprintln(stdout, "record", path)
	line, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if rep.Failed > 0 {
		return 1
	}
	return 0
}
