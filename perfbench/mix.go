package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"morphing/internal/core"
	"morphing/internal/engine"
	"morphing/internal/graph"
	"morphing/internal/obs"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
	"morphing/internal/server"
)

// morphd-mix: two closed-loop tenants work through one shared, seeded
// request sequence against an in-process server that serves the
// compressed, memory-mapped graph file, as morphd -bin does. A round is
// the pool below in a seeded order; each round starts with a cold
// result cache.

func mixSpec(seed int64) GraphSpec {
	return GraphSpec{Vertices: 4000, Edges: 14000, Exponent: 2.8, Offset: 10, Closures: 4000, Seed: seed}
}

const mixTenants = 2

// mixEngines are the four engine models; count queries go to all of
// them. MNI queries go to the first two only: GraphPi and BigJoin cannot
// serve MNI at all (see README.md).
var mixEngines = []string{"peregrine", "autozero", "graphpi", "bigjoin"}

// mixCountSets are the count queries: single Fig. 1 / Fig. 11a patterns
// and pairs, edge- and vertex-induced (":v"). Patterns much dearer than
// these on the mix graph (4-star:v on the anti-edge engines, 5-cycle,
// house, bowtie) are left out so that no request dominates a round.
var mixCountSets = [][]string{
	{"triangle"}, {"tailed-triangle"}, {"tailed-triangle:v"}, {"4-cycle"}, {"4-cycle:v"},
	{"chordal-4-cycle"}, {"chordal-4-cycle:v"}, {"4-clique"}, {"p7"}, {"p7:v"}, {"p8:v"},
	{"triangle", "4-clique"}, {"tailed-triangle:v", "chordal-4-cycle:v"},
	{"4-cycle", "chordal-4-cycle"}, {"p7:v", "p8"}, {"tailed-triangle", "4-cycle:v"},
}

// mixBaselineSets run with morphing off on Peregrine and AutoZero: the
// comparator that baseline_p50_ms reports.
var mixBaselineSets = [][]string{
	{"triangle"}, {"tailed-triangle"}, {"tailed-triangle:v"}, {"4-cycle"}, {"4-cycle:v"},
	{"chordal-4-cycle"}, {"chordal-4-cycle:v"}, {"4-clique"}, {"p7"}, {"p7:v"},
	{"triangle", "4-clique"}, {"tailed-triangle:v", "chordal-4-cycle:v"},
}

// mixMNISets are the MNI-support queries.
var mixMNISets = [][]string{
	{"triangle"}, {"tailed-triangle"}, {"chordal-4-cycle"}, {"4-clique"}, {"p7"},
}

// mixRepeats is how many count requests are sent with caching allowed
// and then repeated later in the round, so the repeat is served from
// the cache or coalesced with the first.
const mixRepeats = 6

// mixPool builds the fixed request list of one round, before ordering.
func mixPool() []server.QueryRequest {
	var pool []server.QueryRequest
	for _, e := range mixEngines {
		for _, ps := range mixCountSets {
			pool = append(pool, server.QueryRequest{Patterns: ps, Engine: e, NoCache: true})
		}
	}
	for _, e := range mixEngines[:2] {
		for _, ps := range mixBaselineSets {
			pool = append(pool, server.QueryRequest{Patterns: ps, Engine: e, Baseline: true, NoCache: true})
		}
		for _, ps := range mixMNISets {
			pool = append(pool, server.QueryRequest{Patterns: ps, App: "mni", Engine: e, NoCache: true})
		}
	}
	return pool
}

// mixSequence orders the pool for one seed: a seeded shuffle, then
// mixRepeats count requests (the same ones for every seed) are made
// cacheable and sent again at a seeded later place, at least three
// places on where the round allows, so that the repeat finds the first
// one admitted and is served from the cache or coalesced with it.
func mixSequence(seed int64) []server.QueryRequest {
	pool := mixPool()
	nCount := len(mixEngines) * len(mixCountSets)
	for i := 0; i < mixRepeats; i++ {
		pool[i*nCount/mixRepeats].NoCache = false
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	after := make([][]server.QueryRequest, len(pool))
	for p, q := range pool {
		if q.NoCache {
			continue
		}
		at := len(pool) - 1
		if lo := p + 2; lo < at {
			at = lo + rng.Intn(at-lo+1)
		}
		after[at] = append(after[at], q)
	}
	seq := make([]server.QueryRequest, 0, len(pool)+mixRepeats)
	for p, q := range pool {
		seq = append(seq, q)
		seq = append(seq, after[p]...)
	}
	return seq
}

type mixBench struct {
	seq     []server.QueryRequest
	want    map[string]uint64 // "app|pattern" -> count or support
	o       *obs.Observer
	srv     *server.Server
	h       *graph.Handle
	setup   []time.Duration            // one set-up total per repeat
	sl      map[string][]time.Duration // set-up step times
	bpe     float64                    // .mcsr file bytes per edge
	phases  map[*Acc]*[2]obs.Snapshot  // registry at the start and end of each phase
	depthMu sync.Mutex
	depth   map[*Acc]int // highest queue depth a queued event reported, per phase
}

func setupMix(c *Config) (bench, error) {
	spec := mixSpec(c.Seed)
	in, err := Generate(spec)
	if err != nil {
		return nil, err
	}
	c.Input = in.Shape()
	elPath := filepath.Join(c.Dir, "mix.el")
	binPath := filepath.Join(c.Dir, "mix.mcsr")
	if err := WriteEdgeListFile(elPath, spec, in); err != nil {
		return nil, err
	}
	s := &mixBench{
		seq: mixSequence(c.Seed), sl: map[string][]time.Duration{},
		phases: map[*Acc]*[2]obs.Snapshot{}, depth: map[*Acc]int{},
	}
	var plain *graph.Graph
	for i := 0; i < setupRepeats; i++ {
		if s.srv != nil {
			s.close()
		}
		var total time.Duration
		step := func(name string, f func() error) error {
			d, err := timeSetup(name, f)
			s.sl[name] = append(s.sl[name], d)
			total += d
			return err
		}
		if err := step("graph.load", func() error {
			plain, err = graph.LoadEdgeListFile(elPath, nil)
			return err
		}); err != nil {
			return nil, err
		}
		if err := step("graph.encode", func() error { return writeCompressed(plain, binPath) }); err != nil {
			return nil, err
		}
		if err := step("graph.open", func() error {
			s.h, err = graph.Open(binPath, graph.OpenOptions{Mode: graph.OpenMmap})
			return err
		}); err != nil {
			return nil, err
		}
		s.o = &obs.Observer{Metrics: obs.NewRegistry()}
		if err := step("server.new", func() error {
			s.srv, err = server.New(s.h.Graph(), server.Config{
				Engine:          "peregrine",
				Threads:         1,
				MaxInFlight:     c.Threads, // in-flight queries x engine threads <= nproc
				MaxQueue:        2 * mixTenants,
				DefaultDeadline: time.Minute,
				SampleInterval:  -1,
				Obs:             s.o,
				Flight:          &obs.FlightPolicy{},
			})
			return err
		}); err != nil {
			return nil, err
		}
		s.setup = append(s.setup, total)
	}
	if st, err := os.Stat(binPath); err == nil && plain.NumEdges() > 0 {
		s.bpe = float64(st.Size()) / float64(plain.NumEdges())
	}
	if s.want, err = mixReference(c, in, plain, s.seq); err != nil {
		return nil, err
	}
	return s, nil
}

func writeCompressed(g *graph.Graph, path string) error {
	cg, err := graph.Compress(g, 0)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := cg.WriteBinary2(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// mixReference computes every answer the sequence asks for before
// timing starts. Triangles, 4-cycles and 4-cliques come from the
// benchmark's own counts; everything else from a serverless,
// morphing-off Peregrine run on the plain CSR graph.
func mixReference(c *Config, in *Graph, plain *graph.Graph, seq []server.QueryRequest) (map[string]uint64, error) {
	cp := CountCopies(in.Adj())
	census, err := SolveCensus(cp)
	if err != nil {
		return nil, err
	}
	want := map[string]uint64{
		"count|triangle": cp.Triangle, "count|triangle:v": cp.Triangle,
		"count|4-cycle": cp.Cycle, "count|4-cycle:v": census.Cycle,
		"count|4-clique": cp.Clique, "count|4-clique:v": cp.Clique,
	}
	r := &core.Runner{Engine: &peregrine.Engine{Threads: c.Threads}, DisableMorphing: true, Label: "perfbench-reference"}
	ctx := context.Background()
	for _, q := range seq {
		app := q.App
		if app == "" {
			app = "count"
		}
		for _, arg := range q.Patterns {
			key := app + "|" + arg
			if _, ok := want[key]; ok {
				continue
			}
			p, err := server.ResolvePattern(arg)
			if err != nil {
				return nil, err
			}
			ps := []*pattern.Pattern{p}
			if app == "mni" {
				tables, _, err := r.MNITablesCtx(ctx, plain, ps)
				if err != nil {
					return nil, fmt.Errorf("reference %s: %w", key, err)
				}
				want[key] = uint64(tables[0].Support())
			} else {
				counts, _, err := r.CountsCtx(ctx, plain, ps)
				if err != nil {
					return nil, fmt.Errorf("reference %s: %w", key, err)
				}
				want[key] = counts[0]
			}
		}
	}
	return want, nil
}

func (s *mixBench) round(acc *Acc) {
	ph := s.phases[acc]
	if ph == nil {
		ph = &[2]obs.Snapshot{s.o.Metrics.Snapshot()}
		s.phases[acc] = ph
	}
	s.srv.SetGraph(s.h.Graph()) // new epoch: the round starts with a cold cache
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < mixTenants; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			client := fmt.Sprintf("tenant-%d", t)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.seq) {
					return
				}
				req := s.seq[i]
				sp := beginSpan("server.submit", 1+t, false)
				t0 := time.Now()
				res, qerr := s.srv.Submit(context.Background(), &req, client, func(ev server.StreamEvent) {
					if ev.Type == server.EventQueued {
						s.depthMu.Lock()
						if ev.QueueDepth > s.depth[acc] {
							s.depth[acc] = ev.QueueDepth
						}
						s.depthMu.Unlock()
					}
				})
				d := time.Since(t0)
				runOf := ""
				if res != nil && res.Cache == "miss" && res.Report != nil {
					runOf = res.Report.RunID
				}
				sp.end(runOf)
				mu.Lock()
				s.record(acc, &req, res, qerr, d)
				mu.Unlock()
			}
		}(t)
	}
	wg.Wait()
	acc.busy += time.Since(start)
	ph[1] = s.o.Metrics.Snapshot()
}

// record scores one response; the caller holds the round's lock.
func (s *mixBench) record(acc *Acc, req *server.QueryRequest, res *server.QueryResult, qerr *server.QueryError, d time.Duration) {
	acc.attempted++
	if qerr != nil {
		acc.fail(fmt.Sprintf("%s %s %v", req.Engine, req.App, req.Patterns), qerr)
		return
	}
	acc.check(s.verify(req, res))
	acc.queries++
	acc.lat = append(acc.lat, d)
	if req.Baseline {
		acc.base = append(acc.base, d)
	}
	if res.Cache != "miss" || res.Report == nil {
		return
	}
	rep := res.Report
	acc.sums[sTransform] += float64(rep.TransformNS) / 1e6
	acc.sums[sConvert] += float64(rep.ConvertNS) / 1e6
	mine := 0.0
	if m := rep.Mining; m != nil {
		mine = float64(m.TotalTimeNS) / 1e6
		if m.Skew > 0 {
			acc.sums[sSkew] += m.Skew
			acc.sums[sSkewSamples]++
		}
	}
	acc.sums[sMine] += mine
	acc.sums[sResidue] += ms(d) - float64(rep.TransformNS+rep.ConvertNS)/1e6 - mine
	if !req.Baseline && rep.CostBefore > 0 && rep.CostAfter > 0 {
		acc.sums[sCostRatio] += rep.CostAfter / rep.CostBefore
		acc.sums[sCostSamples]++
	}
	if st := rep.Storage; st != nil {
		acc.addDecode(graph.DecodeStats{Elems: st.DecodeElems, ProbeHits: st.ProbeHits, ProbeMisses: st.ProbeMisses})
	}
}

// verify compares a response with the reference answers.
func (s *mixBench) verify(req *server.QueryRequest, res *server.QueryResult) error {
	app := req.App
	if app == "" {
		app = "count"
	}
	got := res.Counts
	if app == "mni" {
		got = make([]uint64, len(res.Supports))
		for i, v := range res.Supports {
			got[i] = uint64(v)
		}
	}
	if len(got) != len(req.Patterns) {
		return fmt.Errorf("mix: %s %s %v (%s): %d answers for %d patterns",
			req.Engine, app, req.Patterns, res.Cache, len(got), len(req.Patterns))
	}
	for i, arg := range req.Patterns {
		if want := s.want[app+"|"+arg]; got[i] != want {
			return fmt.Errorf("mix: %s %s %s (%s, baseline=%v): %d, reference %d",
				req.Engine, app, arg, res.Cache, req.Baseline, got[i], want)
		}
	}
	return nil
}

func (s *mixBench) setTraced(on bool) {
	// The server's engines are built without instrumentation, so the
	// traced half adds only the tracer.
	if on {
		s.o.Tracer = obs.Default().Tracer
	} else {
		s.o.Tracer = nil
	}
}

func (s *mixBench) setupTimes() []time.Duration { return s.setup }

func (s *mixBench) setupLayers() map[string]float64 {
	return map[string]float64{
		"graph.load_ms":        Median(durationsMS(s.sl["graph.load"])),
		"graph.encode_ms":      Median(durationsMS(s.sl["graph.encode"])),
		"graph.open_ms":        Median(durationsMS(s.sl["graph.open"])),
		"graph.bytes_per_edge": s.bpe,
	}
}

func (s *mixBench) layers(acc *Acc) map[string]float64 {
	out := runLayers(acc)
	ph := s.phases[acc]
	if ph == nil {
		return out
	}
	before, after := ph[0], ph[1]
	delta := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	per := func(name string) float64 {
		if acc.queries == 0 {
			return 0
		}
		return delta(name) / float64(acc.queries)
	}
	out[sSetOps] = per(engine.MetricSetOps)
	out[sSetElems] = per(engine.MetricSetElems)
	out[sShared] = per(engine.MetricTrieSharedLevels)
	out[sMatches] = per(engine.MetricMatches)
	out[sBranches] = per(engine.MetricBranches)
	out[sWritten] = per(engine.MetricSetWritten)
	out[sInserts] = per(engine.MetricUDFCalls)
	if ops := delta(engine.MetricSetOps); ops > 0 {
		out["setops.countonly_share"] = delta(engine.MetricSetCountOps) / ops
		out["setops.scalar_share"] = delta(engine.MetricSetMergeOps) / ops
	}
	hist := func(name string) obs.HistogramSnapshot {
		return after.Histograms[name].Sub(before.Histograms[name])
	}
	_, pct := Tail(durationsMS(acc.lat))
	out["server.admit_ms_p50"] = float64(hist(server.MetricPhaseAdmitNS).Quantile(0.5)) / 1e6
	out["server.queue_ms_p50"] = float64(hist(server.MetricPhaseQueueNS).Quantile(0.5)) / 1e6
	out["server.mine_ms_p50"] = float64(hist(server.MetricPhaseMineNS).Quantile(0.5)) / 1e6
	out["server.queue_ms_tail"] = float64(hist(server.MetricPhaseQueueNS).Quantile(pct/100)) / 1e6
	s.depthMu.Lock()
	out["server.queue_depth_max"] = float64(s.depth[acc])
	s.depthMu.Unlock()
	if n := delta(server.MetricQueries); n > 0 {
		out["server.unmined_share"] = (delta(server.MetricCacheHits) + delta(server.MetricCoalesced)) / n
	}
	return out
}

func (s *mixBench) close() {
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := s.srv.Drain(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: drain:", err)
		}
		cancel()
		s.srv = nil
	}
	if s.h != nil {
		if err := s.h.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: close graph:", err)
		}
		s.h = nil
	}
}
