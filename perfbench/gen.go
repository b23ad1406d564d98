package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
)

// GraphSpec describes one generated input. Generation is deterministic
// in every field, Seed included, and uses only math/rand with an
// explicit source, whose sequence Go keeps fixed across releases.
//
// The graph is a Chung-Lu graph over a fixed power-law weight sequence
// (vertex i expects a degree proportional to (i+Offset)^(-1/(Exponent-1)))
// plus a triangle-closure pass that closes random wedges. The weights do
// not depend on the seed, so the hub degrees, and with them the mining
// cost, stay close across seeds while the wiring, the closures, the
// vertex numbering and the labels change.
type GraphSpec struct {
	Vertices int
	Edges    int     // distinct edges placed by the Chung-Lu phase
	Exponent float64 // power-law exponent of the expected degrees
	Offset   float64 // softens the largest weights; keeps the top hub bounded
	Closures int     // triangle-closure attempts after the Chung-Lu phase
	Labels   int     // 0 = unlabeled
	ZipfS    float64 // Zipf exponent of the label frequencies (> 1)
	Seed     int64
}

// Graph is a generated input: an undirected simple graph over vertex IDs
// 0..N-1 (the IDs written to the file), with optional labels.
type Graph struct {
	N      int
	Edges  [][2]uint32 // u < v, sorted
	Labels []int32     // nil when unlabeled
}

// Generate builds the graph described by s.
func Generate(s GraphSpec) (*Graph, error) {
	if s.Vertices < 4 || s.Edges < 1 || s.Exponent <= 2 || s.Offset < 1 {
		return nil, fmt.Errorf("gen: bad spec %+v", s)
	}
	if max := s.Vertices * (s.Vertices - 1) / 2; s.Edges > max/2 {
		return nil, fmt.Errorf("gen: %d edges too dense for %d vertices", s.Edges, s.Vertices)
	}
	rng := rand.New(rand.NewSource(s.Seed))
	n := s.Vertices
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += math.Pow(float64(i)+s.Offset, -1/(s.Exponent-1))
		cum[i] = total
	}
	pick := func() int {
		return sort.SearchFloat64s(cum, rng.Float64()*total)
	}
	key := func(u, v int) uint64 {
		if u > v {
			u, v = v, u
		}
		return uint64(u)<<32 | uint64(v)
	}
	seen := make(map[uint64]bool, s.Edges+s.Closures)
	adj := make([][]int, n)
	add := func(u, v int) bool {
		if u == v || seen[key(u, v)] {
			return false
		}
		seen[key(u, v)] = true
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
		return true
	}
	var edges [][2]int
	for len(edges) < s.Edges {
		u, v := pick(), pick()
		if add(u, v) {
			edges = append(edges, [2]int{u, v})
		}
	}
	// Close wedges u-v-w, with the wedge's edge drawn uniformly: hubs sit
	// on more edges, so clustering gathers around them as in social and
	// co-authorship graphs.
	for i := 0; i < s.Closures; i++ {
		e := edges[rng.Intn(len(edges))]
		u, v := e[0], e[1]
		if rng.Intn(2) == 1 {
			u, v = v, u
		}
		w := adj[v][rng.Intn(len(adj[v]))]
		if add(u, w) {
			edges = append(edges, [2]int{u, w})
		}
	}
	// Number the vertices in a seeded random order so that file IDs say
	// nothing about degree.
	perm := rng.Perm(n)
	g := &Graph{N: n, Edges: make([][2]uint32, len(edges))}
	for i, e := range edges {
		a, b := uint32(perm[e[0]]), uint32(perm[e[1]])
		if a > b {
			a, b = b, a
		}
		g.Edges[i] = [2]uint32{a, b}
	}
	sort.Slice(g.Edges, func(i, j int) bool {
		if g.Edges[i][0] != g.Edges[j][0] {
			return g.Edges[i][0] < g.Edges[j][0]
		}
		return g.Edges[i][1] < g.Edges[j][1]
	})
	if s.Labels > 0 {
		if s.ZipfS <= 1 {
			return nil, fmt.Errorf("gen: Zipf exponent %v must exceed 1", s.ZipfS)
		}
		// Label l is given to a share of the vertices proportional to
		// (l+1)^-ZipfS, exactly; the seed decides which vertices.
		g.Labels = make([]int32, 0, n)
		total := 0.0
		for l := 0; l < s.Labels; l++ {
			total += math.Pow(float64(l+1), -s.ZipfS)
		}
		acc := 0.0
		for l := 0; l < s.Labels; l++ {
			acc += math.Pow(float64(l+1), -s.ZipfS)
			for len(g.Labels) < int(math.Round(acc/total*float64(n))) {
				g.Labels = append(g.Labels, int32(l))
			}
		}
		rng.Shuffle(n, func(i, j int) { g.Labels[i], g.Labels[j] = g.Labels[j], g.Labels[i] })
	}
	return g, nil
}

// WriteEdgeList writes g in the program's edge-list text format: a
// comment header naming the spec, one "v <id> <label>" line per vertex
// when labeled, then one "u v" line per edge.
func WriteEdgeList(w io.Writer, s GraphSpec, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# perfbench graph %+v\n", s)
	fmt.Fprintf(bw, "# vertices %d edges %d\n", g.N, len(g.Edges))
	for v, l := range g.Labels {
		fmt.Fprintf(bw, "v %d %d\n", v, l)
	}
	for _, e := range g.Edges {
		fmt.Fprintf(bw, "%d %d\n", e[0], e[1])
	}
	return bw.Flush()
}

// WriteEdgeListFile writes g to path.
func WriteEdgeListFile(path string, s GraphSpec, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteEdgeList(f, s, g); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// Adj returns sorted adjacency lists of g.
func (g *Graph) Adj() [][]uint32 {
	adj := make([][]uint32, g.N)
	for _, e := range g.Edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	for _, row := range adj {
		sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
	}
	return adj
}

// Shape summarizes g for the README and the run's environment line.
type Shape struct {
	Vertices  int     `json:"vertices"` // vertices with at least one edge
	Edges     int     `json:"edges"`
	MaxDegree int     `json:"max_degree"`
	Skew      float64 `json:"degree_skew"` // max degree over mean degree
	Labels    int     `json:"labels"`      // distinct labels on non-isolated vertices
}

// Shape measures g.
func (g *Graph) Shape() Shape {
	deg := make([]int, g.N)
	for _, e := range g.Edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	var sh Shape
	labels := map[int32]bool{}
	for v, d := range deg {
		if d == 0 {
			continue
		}
		sh.Vertices++
		if d > sh.MaxDegree {
			sh.MaxDegree = d
		}
		if g.Labels != nil {
			labels[g.Labels[v]] = true
		}
	}
	sh.Edges = len(g.Edges)
	sh.Labels = len(labels)
	if sh.Vertices > 0 {
		sh.Skew = float64(sh.MaxDegree) / (2 * float64(sh.Edges) / float64(sh.Vertices))
	}
	return sh
}
