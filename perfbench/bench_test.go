package main

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"

	"morphing/internal/apps/fsm"
	"morphing/internal/apps/mc"
	"morphing/internal/graph"
	"morphing/internal/peregrine"
	"morphing/internal/server"
)

func edgeGraph(n int, edges ...[2]uint32) *Graph {
	return &Graph{N: n, Edges: edges}
}

// The hand-countable graphs of the census check.
var (
	k4      = edgeGraph(4, [2]uint32{0, 1}, [2]uint32{0, 2}, [2]uint32{0, 3}, [2]uint32{1, 2}, [2]uint32{1, 3}, [2]uint32{2, 3})
	star    = edgeGraph(4, [2]uint32{0, 1}, [2]uint32{0, 2}, [2]uint32{0, 3})
	path    = edgeGraph(4, [2]uint32{0, 1}, [2]uint32{1, 2}, [2]uint32{2, 3})
	cycle   = edgeGraph(4, [2]uint32{0, 1}, [2]uint32{1, 2}, [2]uint32{2, 3}, [2]uint32{0, 3})
	diamond = edgeGraph(4, [2]uint32{0, 1}, [2]uint32{0, 2}, [2]uint32{1, 2}, [2]uint32{1, 3}, [2]uint32{2, 3})
)

func TestCensusHandCounted(t *testing.T) {
	for _, tc := range []struct {
		name   string
		g      *Graph
		copies Copies
		census Census
	}{
		{"K4", k4, Copies{Triangle: 4, Star: 4, Path: 12, TailedTriangle: 12, Cycle: 3, Diamond: 6, Clique: 1}, Census{Clique: 1}},
		{"star", star, Copies{Star: 1}, Census{Star: 1}},
		{"path", path, Copies{Path: 1}, Census{Path: 1}},
		{"4-cycle", cycle, Copies{Path: 4, Cycle: 1}, Census{Cycle: 1}},
		{"diamond", diamond, Copies{Triangle: 2, Star: 2, Path: 6, TailedTriangle: 4, Cycle: 1, Diamond: 1}, Census{Diamond: 1}},
	} {
		c := CountCopies(tc.g.Adj())
		if c != tc.copies {
			t.Errorf("%s: copies %+v, want %+v", tc.name, c, tc.copies)
		}
		m, err := SolveCensus(c)
		if err != nil || m != tc.census {
			t.Errorf("%s: census %+v (%v), want %+v", tc.name, m, err, tc.census)
		}
	}
}

// bruteCensus classifies every 4-vertex subset.
func bruteCensus(g *Graph) Census {
	adj := g.Adj()
	var m Census
	for a := 0; a < g.N; a++ {
		for b := a + 1; b < g.N; b++ {
			for c := b + 1; c < g.N; c++ {
				for d := c + 1; d < g.N; d++ {
					vs := [4]uint32{uint32(a), uint32(b), uint32(c), uint32(d)}
					var edges [][2]int
					for i := 0; i < 4; i++ {
						for j := i + 1; j < 4; j++ {
							if hasEdge(adj, vs[i], vs[j]) {
								edges = append(edges, [2]int{i, j})
							}
						}
					}
					switch shape, _ := shape4(edges); shape {
					case "star":
						m.Star++
					case "path":
						m.Path++
					case "tailed-triangle":
						m.TailedTriangle++
					case "cycle":
						m.Cycle++
					case "diamond":
						m.Diamond++
					case "clique":
						m.Clique++
					}
				}
			}
		}
	}
	return m
}

func TestCensusMatchesBruteForce(t *testing.T) {
	g, err := Generate(GraphSpec{Vertices: 40, Edges: 150, Exponent: 2.3, Offset: 2, Closures: 60, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	got, err := SolveCensus(CountCopies(g.Adj()))
	if err != nil {
		t.Fatal(err)
	}
	if want := bruteCensus(g); got != want {
		t.Fatalf("solved %+v, brute force %+v", got, want)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := GraphSpec{Vertices: 300, Edges: 900, Exponent: 2.3, Offset: 4, Closures: 200, Labels: 8, ZipfS: 1.3, Seed: 5}
	write := func(s GraphSpec) []byte {
		g, err := Generate(s)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, s, g); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := write(spec), write(spec)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed gave different bytes")
	}
	other := spec
	other.Seed = 6
	if bytes.Equal(a, write(other)) {
		t.Fatal("different seeds gave identical bytes")
	}
}

// loadGraph writes g and loads it through the program's loader.
func loadGraph(t *testing.T, spec GraphSpec, g *Graph) *graph.Graph {
	t.Helper()
	path := t.TempDir() + "/g.el"
	if err := WriteEdgeListFile(path, spec, g); err != nil {
		t.Fatal(err)
	}
	pg, err := graph.LoadEdgeListFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pg
}

func TestCensusCheckRejectsAlteredCount(t *testing.T) {
	spec := GraphSpec{Vertices: 200, Edges: 800, Exponent: 2.3, Offset: 3, Closures: 300, Seed: 3}
	in, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SolveCensus(CountCopies(in.Adj()))
	if err != nil {
		t.Fatal(err)
	}
	s := &censusBench{g: loadGraph(t, spec, in), eng: peregrine.New(2), want: want}
	for _, morph := range []bool{true, false} {
		res, err := mc.CountCtx(context.Background(), s.g, 4, s.eng, morph)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.verify(res); err != nil {
			t.Fatalf("morph=%v: %v", morph, err)
		}
		for i := range res.Counts {
			res.Counts[i]++
			if s.verify(res) == nil {
				t.Errorf("morph=%v: count %d altered, check passed", morph, i)
			}
			res.Counts[i]--
		}
	}
}

func TestFSMChecks(t *testing.T) {
	spec := GraphSpec{Vertices: 400, Edges: 1200, Exponent: 2.4, Offset: 3, Closures: 300, Labels: 5, ZipfS: 1.3, Seed: 9}
	in, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	s := &fsmBench{g: loadGraph(t, spec, in), eng: peregrine.New(2)}
	const minSup = 20
	mine := func(morph bool) []fsm.Frequent {
		freq, _, err := fsm.MineCtx(context.Background(), s.g, s.eng, fsm.Options{MaxEdges: 3, MinSupport: minSup, Morph: morph})
		if err != nil {
			t.Fatal(err)
		}
		return freq
	}
	ref := mine(false)
	out, pats := fsmResult(ref)
	direct := EdgeSupports(in.Adj(), in.Labels)
	if err := CheckFSM(out, pats, direct, minSup); err != nil {
		t.Fatal(err)
	}
	s.want = out
	morphed := mine(true)
	if err := s.verify(morphed); err != nil {
		t.Fatal(err)
	}
	// Every alteration must be caught.
	for k, sup := range out {
		bad := map[string]int{}
		for k2, v := range out {
			bad[k2] = v
		}
		if len(pats[k].Edges) == 1 {
			bad[k] = sup + 1
			if CheckFSM(bad, pats, direct, minSup) == nil {
				t.Errorf("altered single-edge support of %s passed", k)
			}
		}
		bad[k] = minSup - 1
		if CheckFSM(bad, pats, direct, minSup) == nil {
			t.Errorf("support below threshold for %s passed", k)
		}
	}
	for i := range morphed {
		morphed[i].Support++
		if s.verify(morphed) == nil {
			t.Errorf("altered support of output %d passed", i)
		}
		morphed[i].Support--
	}
	var deepest string
	for k, p := range pats {
		if len(p.Edges) == 3 {
			deepest = k
		}
	}
	if deepest == "" {
		t.Fatal("no 3-edge pattern is frequent; the test graph is too sparse")
	}
	for _, q := range pats[deepest].subPatterns() {
		missing := map[string]int{}
		for k, v := range out {
			if k != q.Key() {
				missing[k] = v
			}
		}
		if CheckFSM(missing, pats, direct, minSup) == nil {
			t.Errorf("missing sub-pattern %s of %s passed", q.Key(), deepest)
		}
	}
}

func TestEdgeSupportsHandCounted(t *testing.T) {
	// A labeled star: centre 0 (label 1) with leaves 1, 2 (label 2) and
	// 3 (label 1). Pair (1,2): one centre, two leaves -> min(1, 2) = 1.
	// Pair (1,1): vertices 0 and 3 both have a label-1 neighbour -> 2.
	g := &Graph{N: 4, Edges: star.Edges, Labels: []int32{1, 2, 2, 1}}
	got := EdgeSupports(g.Adj(), g.Labels)
	key := func(a, b int32) string { return LPattern{Labels: []int32{a, b}, Edges: [][2]int{{0, 1}}}.Key() }
	if got[key(1, 2)] != 1 || got[key(2, 1)] != 1 || got[key(1, 1)] != 2 || len(got) != 2 {
		t.Fatalf("supports %v", got)
	}
}

func TestKeyIgnoresVertexOrder(t *testing.T) {
	p := LPattern{Labels: []int32{3, 1, 2, 1}, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}}}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		perm := rng.Perm(4)
		q := LPattern{Labels: make([]int32, 4)}
		for v, l := range p.Labels {
			q.Labels[perm[v]] = l
		}
		for _, e := range p.Edges {
			q.Edges = append(q.Edges, [2]int{perm[e[0]], perm[e[1]]})
		}
		if q.Key() != p.Key() {
			t.Fatalf("permutation %v changed the key", perm)
		}
	}
	r := LPattern{Labels: []int32{3, 1, 2, 1}, Edges: [][2]int{{0, 1}, {1, 2}, {1, 3}}}
	if r.Key() == p.Key() {
		t.Fatal("a star and a path share a key")
	}
}

func TestMixSequence(t *testing.T) {
	a, b, c := mixSequence(1), mixSequence(1), mixSequence(2)
	sig := func(seq []server.QueryRequest) []string {
		var out []string
		for _, q := range seq {
			out = append(out, strings.Join(q.Patterns, "+")+"|"+q.Engine+"|"+q.App+"|"+
				map[bool]string{true: "base", false: ""}[q.Baseline]+"|"+map[bool]string{true: "", false: "cache"}[q.NoCache])
		}
		return out
	}
	sa, sb, sc := sig(a), sig(b), sig(c)
	if strings.Join(sa, ",") != strings.Join(sb, ",") {
		t.Fatal("the same seed gave different sequences")
	}
	if strings.Join(sa, ",") == strings.Join(sc, ",") {
		t.Fatal("different seeds gave the same order")
	}
	count := func(s []string) map[string]int {
		m := map[string]int{}
		for _, x := range s {
			m[x]++
		}
		return m
	}
	ca, cc := count(sa), count(sc)
	if len(ca) != len(cc) {
		t.Fatal("different seeds gave different request mixes")
	}
	for k, n := range ca {
		if cc[k] != n {
			t.Fatalf("request %s: %d vs %d", k, n, cc[k])
		}
	}
	cacheable := 0
	for k, n := range ca {
		if strings.HasSuffix(k, "|cache") {
			cacheable++
			if n != 2 {
				t.Errorf("cacheable request %s appears %d times, want 2", k, n)
			}
		}
	}
	if cacheable != mixRepeats {
		t.Fatalf("%d cacheable requests, want %d", cacheable, mixRepeats)
	}
}

func TestMixCheckRejectsAlteredAnswer(t *testing.T) {
	s := &mixBench{want: map[string]uint64{"count|triangle": 7, "count|4-clique": 2, "mni|triangle": 5}}
	ok := []struct {
		req server.QueryRequest
		res server.QueryResult
	}{
		{server.QueryRequest{Patterns: []string{"triangle", "4-clique"}}, server.QueryResult{Counts: []uint64{7, 2}, Cache: "hit"}},
		{server.QueryRequest{Patterns: []string{"triangle"}, App: "mni"}, server.QueryResult{Supports: []int{5}, Cache: "miss"}},
	}
	for _, c := range ok {
		if err := s.verify(&c.req, &c.res); err != nil {
			t.Fatal(err)
		}
	}
	bad := []struct {
		req server.QueryRequest
		res server.QueryResult
	}{
		{server.QueryRequest{Patterns: []string{"triangle", "4-clique"}}, server.QueryResult{Counts: []uint64{7, 3}, Cache: "coalesced"}},
		{server.QueryRequest{Patterns: []string{"triangle", "4-clique"}}, server.QueryResult{Counts: []uint64{7}}},
		{server.QueryRequest{Patterns: []string{"triangle"}, App: "mni"}, server.QueryResult{Supports: []int{4}}},
	}
	for _, c := range bad {
		if s.verify(&c.req, &c.res) == nil {
			t.Errorf("%v answered %v passed", c.req.Patterns, c.res)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		// statistics.quantiles(xs, n=4)
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1.25, 9.0, 4.75}, 1.8125, 4.125, 7.9375},
		{[]float64{5, 1, 4, 2, 3, 8, 7}, 2, 4, 7},
	} {
		q1, m, q3 := Quartiles(tc.xs)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("%v: %v %v %v, want %v %v %v", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = float64(50 - i)
	}
	v, pct := Tail(xs)
	if v != 40 || pct != 80 {
		t.Fatalf("tail of 1..50 = %v at p%v, want 40 at p80", v, pct)
	}
}
