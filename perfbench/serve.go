package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	mwvc "repro"
	"repro/internal/cli"
	"repro/internal/graph"
	"repro/internal/serve"
)

// Serve-mixed shape: two closed-loop clients, each with its own corpus of
// small power-law graphs plus one larger G(n,p) graph.
const (
	serveClients    = 2
	smallGraphs     = 12
	improveBudgetMS = 10000 // large enough that every improve run converges
)

// serveOp is one HTTP request of a client's fixed sequence.
type serveOp struct {
	client  int
	upload  bool   // POST /v1/graphs with the corpus text of graph
	graph   int    // index into the client's corpus
	body    []byte // solve request JSON
	algo    string // algorithm the solve request resolves to
	improve bool   // carries improve_budget_ms
	repeat  bool   // repeats an earlier solve of the same client
	fresh   bool   // upload whose content the block's store has not seen
}

// corpus is one client's graphs with their upload texts and content hashes.
type corpus struct {
	graphs []*graph.Graph
	texts  [][]byte
	hashes []string
}

// serveWorkload drives the in-process solve service over HTTP. Each block
// runs against a fresh engine (empty store and solution cache) behind the
// same httptest server, so the block's uploads write and its repeats hit
// the cache identically every block, while the clients keep their
// keep-alive connections.
type serveWorkload struct {
	corp   []corpus
	seqs   [][]serveOp // per client
	srv    *httptest.Server
	hc     *http.Client
	route  engineSwitch
	engine *serve.Engine // the current block's engine
}

// engineSwitch routes requests to the current block's handler.
type engineSwitch struct{ h atomic.Value }

func (s *engineSwitch) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.h.Load().(http.Handler).ServeHTTP(w, r)
}

func newServe(ctx context.Context, seed uint64, sz sizes) (*serveWorkload, error) {
	w := &serveWorkload{}
	for c := range serveClients {
		var cp corpus
		for k := 0; k <= smallGraphs; k++ {
			gen, n, d := "powerlaw", sz.serveSmallN, sz.serveSmallD
			if k == smallGraphs {
				gen, n, d = "gnp", sz.serveLargeN, sz.serveLargeD
			}
			g, err := cli.BuildGraph(gen, n, d, "uniform", mix(seed, 'G', uint64(c*64+k)))
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			if err := mwvc.WriteGraph(&buf, g); err != nil {
				return nil, err
			}
			h, err := serve.HashGraph(g)
			if err != nil {
				return nil, err
			}
			cp.graphs = append(cp.graphs, g)
			cp.texts = append(cp.texts, buf.Bytes())
			cp.hashes = append(cp.hashes, h)
		}
		seq, err := sequence(rand.New(rand.NewPCG(seed, uint64(c))), c, sz.serveOps, cp.hashes)
		if err != nil {
			return nil, err
		}
		w.corp = append(w.corp, cp)
		w.seqs = append(w.seqs, seq)
	}
	w.srv = httptest.NewServer(&w.route)
	w.hc = w.srv.Client()
	// Warm-up: one whole block, checked.
	if err := w.prepare(); err != nil {
		w.close()
		return nil, err
	}
	for _, r := range w.run(ctx, nil, 0, nil) {
		if r.err == nil {
			r.err = r.check(&r)
		}
		if r.err != nil {
			w.close()
			return nil, fmt.Errorf("warm-up: %w", r.err)
		}
	}
	return w, nil
}

// Per-client block composition: the seed shuffles the order, picks the
// re-uploaded graphs and derives the solver seeds, but never changes how
// many ops of each kind a block holds, so runs on different seeds do the
// same work. The positions not taken by fresh uploads, re-uploads and
// repeats are new solves.
const reuploads = 6 // one of them re-uploads the large graph

// algoOf is the algorithm of new solve spec i, by i%3.
var algoOf = [3]string{string(mwvc.AlgoPDFast), string(mwvc.AlgoMPC), string(mwvc.AlgoMPCCompress)}

// repeated lists the new-solve specs that are repeated later in the block:
// all on small graphs, covering every algorithm with and without an
// improvement budget.
var repeated = []int{1, 2, 3, 4, 5, 6, 7, 11}

// sequence draws one client's fixed request sequence of length n. It opens
// with the fresh uploads of the whole corpus (small graph 0, the large
// graph, the other small graphs). Then come, shuffled, re-uploads of stored
// graphs and new solves. New solve spec i runs on the large graph if
// i%8 == 0, uses the fast tier, mpc or mpc-compress by i%3, and carries an
// improvement budget if i%4 == 3; small-graph solves take the small graphs
// in a shuffled round robin, so each is solved equally often. Last, each
// spec in repeated is sent again at a random later position: a
// deterministic cache hit, since the closed loop has finished it.
func sequence(rng *rand.Rand, c, n int, hashes []string) ([]serveOp, error) {
	large := len(hashes) - 1
	seq := []serveOp{{client: c, upload: true, graph: 0, fresh: true}, {client: c, upload: true, graph: large, fresh: true}}
	for k := 1; k < large; k++ {
		seq = append(seq, serveOp{client: c, upload: true, graph: k, fresh: true})
	}
	solves := n - len(seq) - reuploads - len(repeated)
	slots := rng.Perm(reuploads + solves) // values below reuploads are re-uploads
	order := rng.Perm(large)
	at := make([]int, solves) // position of each spec in seq
	small := 0
	for _, b := range slots {
		if b < reuploads {
			g := large
			if b > 0 {
				g = rng.IntN(large)
			}
			seq = append(seq, serveOp{client: c, upload: true, graph: g})
			continue
		}
		i := b - reuploads
		o := serveOp{client: c, graph: large, algo: algoOf[i%3], improve: i%4 == 3}
		if i%8 != 0 {
			o.graph = order[small%large]
			small++
		}
		req := serve.SolveRequest{Graph: hashes[o.graph], Seed: uint64(c)<<32 | uint64(i), IncludeCover: true}
		if i%3 == 0 {
			req.Tier = "fast"
		} else {
			req.Algorithm = o.algo
		}
		if o.improve {
			req.ImproveBudgetMS = improveBudgetMS
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		o.body = body
		at[i] = len(seq)
		seq = append(seq, o)
	}
	for _, i := range repeated {
		o := seq[at[i]]
		o.repeat = true
		pos := at[i] + 1 + rng.IntN(len(seq)-at[i])
		seq = append(seq[:pos], append([]serveOp{o}, seq[pos:]...)...)
		for k, p := range at {
			if p >= pos {
				at[k] = p + 1
			}
		}
	}
	return seq, nil
}

// prepare swaps in a fresh engine with the default configuration.
func (w *serveWorkload) prepare() error {
	if w.engine != nil {
		w.engine.Close()
	}
	e, err := serve.NewEngine(serve.Config{})
	if err != nil {
		return err
	}
	w.engine = e
	w.route.h.Store(serve.NewHandler(e))
	return nil
}

func (w *serveWorkload) close() {
	if w.srv != nil {
		w.srv.Close()
	}
	if w.engine != nil {
		w.engine.Close()
	}
}

// reply is one raw HTTP exchange as the client saw it.
type reply struct {
	start, end time.Time
	status     int
	body       []byte
	span       int // client span index on the traced pass
	err        error
}

func (w *serveWorkload) run(ctx context.Context, tr *tracer, base int, ls samples) []op {
	n := len(w.seqs[0])
	replies := make([]reply, serveClients*n)
	var wg sync.WaitGroup
	for c := range serveClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j, so := range w.seqs[c] {
				i := c*n + j
				r := w.send(ctx, so)
				if tr != nil {
					name := "serve.solve"
					if so.upload {
						name = "serve.upload"
					}
					r.span = tr.record(base+i, -1, name, r.start, r.end)
				}
				replies[i] = r
			}
		}()
	}
	wg.Wait()

	e := w.engine
	if tr != nil {
		solves := 0
		for _, seq := range w.seqs {
			for _, so := range seq {
				if !so.upload {
					solves++
				}
			}
		}
		m := e.Metrics()
		ls.add("serve.cache_hit_frac", frac(int(m.CacheHits), solves))
		ls.add("serve.coalesced_frac", frac(int(m.Coalesced), solves))
		ls.add("serve.rejected_frac", frac(int(m.Rejected), int(m.RequestsTotal)))
	}
	ops := make([]op, len(replies))
	for i := range replies {
		r, so := replies[i], w.seqs[i/n][i%n]
		ops[i] = op{latency: r.end.Sub(r.start), err: r.err}
		if r.err == nil {
			ops[i].check = func(p *op) error { return w.check(p, e, tr, base+i, so, r, ls) }
		}
	}
	return ops
}

// send posts one request and reads the whole response.
func (w *serveWorkload) send(ctx context.Context, so serveOp) reply {
	url, ctype, body := w.srv.URL+"/v1/solve", "application/json", so.body
	if so.upload {
		url, ctype, body = w.srv.URL+"/v1/graphs", "text/plain", w.corp[so.client].texts[so.graph]
	}
	r := reply{start: time.Now()}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("Content-Type", ctype)
	resp, err := w.hc.Do(req)
	if err == nil {
		r.status = resp.StatusCode
		r.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	r.end, r.err = time.Now(), err
	return r
}

// check verifies one response against the client's own copy of the graph
// and, on the traced pass, adds the server-side spans and layer samples.
func (w *serveWorkload) check(p *op, e *serve.Engine, tr *tracer, id int, so serveOp, r reply, ls samples) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	cp := w.corp[so.client]
	lat := r.end.Sub(r.start)
	if tr != nil {
		ls.add("serve.response_bytes_mean", float64(len(r.body)))
	}
	if so.upload {
		var resp serve.GraphResponse
		if err := json.Unmarshal(r.body, &resp); err != nil {
			return fmt.Errorf("decoding upload response: %w", err)
		}
		g := cp.graphs[so.graph]
		if resp.Graph != cp.hashes[so.graph] || resp.Vertices != g.NumVertices() || resp.Edges != g.NumEdges() || resp.New != so.fresh {
			return fmt.Errorf("upload answered %+v, want graph %s with %d vertices, %d edges, new=%v",
				resp, cp.hashes[so.graph], g.NumVertices(), g.NumEdges(), so.fresh)
		}
		h, err := strconv.ParseUint(resp.Graph[len("sha256:"):][:16], 16, 64)
		if err != nil {
			return err
		}
		p.digest = [2]uint64{h, uint64(resp.Edges)<<1 | uint64(b2f(resp.New))}
		if tr != nil {
			ls.add("serve.upload_ms_p50", ms(lat))
		}
		return nil
	}

	var resp serve.SolveResponse
	if err := json.Unmarshal(r.body, &resp); err != nil {
		return fmt.Errorf("decoding solve response: %w", err)
	}
	sol := resp.Solution
	if resp.Status != serve.StatusDone || sol == nil {
		return fmt.Errorf("solve ended %s without a solution: %s", resp.Status, resp.Error)
	}
	if resp.Algorithm != so.algo {
		return fmt.Errorf("solve ran %s, want %s", resp.Algorithm, so.algo)
	}
	if so.improve && (sol.Improvement == nil || !sol.Improvement.Converged) {
		return fmt.Errorf("improve run did not converge within %d ms; its cover is not reproducible", improveBudgetMS)
	}
	p.setSolution(sol.Weight, sol.Bound, sol.CertifiedRatio, sol.Rounds)
	vstart := time.Now()
	err := checkCover(cp.graphs[so.graph], so.algo, sol.Cover, sol.Weight, sol.Bound)
	if err != nil || tr == nil {
		return err
	}

	ls.add("verify.ms", ms(time.Since(vstart)))
	ls.add("serve.solve_req_ms_p50", ms(lat))
	req, ok := e.Lookup(resp.ID)
	if !ok {
		return fmt.Errorf("engine forgot request %s", resp.ID)
	}
	queued, started, done := req.Times()
	queue, run := started.Sub(queued), done.Sub(started)
	tr.record(id, r.span, "serve.queue", queued, started)
	tr.record(id, r.span, "serve.server_solve", started, done)
	ls.add("serve.queue_ms_p50", ms(queue))
	ls.add("serve.overhead_ms_p50", ms(lat-queue-run))
	if resp.Cached {
		return nil
	}
	ls.add("serve.server_solve_ms_p50", ms(run))
	stages := run
	if red := sol.Reduction; red != nil {
		stages -= time.Duration(red.ReduceNS)
		ls.add("reduce.ms", float64(red.ReduceNS)/1e6)
		ls.add("reduce.vertices_removed_frac", frac(red.OriginalVertices-red.KernelVertices, red.OriginalVertices))
		ls.add("reduce.edges_removed_frac", frac(red.OriginalEdges-red.KernelEdges, red.OriginalEdges))
		ls.add("reduce.pendant", float64(red.Pendant))
		ls.add("reduce.domination", float64(red.Domination))
	}
	if imp := sol.Improvement; imp != nil {
		stages -= time.Duration(imp.ImproveNS)
		ls.add("improve.ms", float64(imp.ImproveNS)/1e6)
		ls.add("improve.steps", float64(imp.Steps))
		ls.add("improve.converged_frac", b2f(imp.Converged))
		if imp.WeightBefore > 0 {
			ls.add("improve.weight_removed_frac", (imp.WeightBefore-imp.WeightAfter)/imp.WeightBefore)
		}
	}
	// The server's solve time less the reduce and improve stages it reports:
	// the kernel solve plus lift and verify.
	ls.add("solve.ms."+so.algo, ms(stages))
	return nil
}
