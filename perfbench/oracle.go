package main

import (
	"fmt"
	"sort"
	"strings"
)

// The checks in this file recompute the program's answers from the
// generated edge list alone. They share no code with the program: a
// change to the engines, the morphing pipeline or the server cannot
// change what they expect.

// Census is the vertex-induced 4-motif census: how many 4-vertex sets
// induce each connected 4-vertex shape.
type Census struct {
	Star, Path, TailedTriangle, Cycle, Diamond, Clique uint64
}

// Copies counts subgraph copies (edge-induced matches, not necessarily
// induced) of the shapes the checks need.
type Copies struct {
	Triangle, Star, Path, TailedTriangle, Cycle, Diamond, Clique uint64
}

// CountCopies solves the copy counts from degrees, co-degrees and
// triangles:
//
//	stars            Σ_v C(d_v, 3)
//	3-edge paths     Σ_{uv} (d_u-1)(d_v-1) - 3T
//	tailed triangles Σ_{triangles abc} (d_a + d_b + d_c - 6)
//	diamonds         Σ_{uv} C(t_uv, 2), t_uv = triangles on edge uv
//	4-cycles         ½ Σ_{u<w} C(codeg(u, w), 2)
//	4-cliques        a direct loop over triangles and a fourth vertex
func CountCopies(adj [][]uint32) Copies {
	var c Copies
	n := len(adj)
	deg := func(v uint32) uint64 { return uint64(len(adj[v])) }
	for v := range adj {
		d := uint64(len(adj[v]))
		if d >= 3 {
			c.Star += d * (d - 1) * (d - 2) / 6
		}
	}
	var pathSum, tailSum uint64
	common := make([]uint32, 0, 64)
	for u := range adj {
		for _, v := range adj[u] {
			if v <= uint32(u) {
				continue
			}
			pathSum += (deg(uint32(u)) - 1) * (deg(v) - 1)
			common = intersect(common[:0], adj[u], adj[v])
			t := uint64(len(common))
			c.Diamond += t * (t - 1) / 2
			for i, w := range common {
				if w <= v {
					continue
				}
				c.Triangle++
				tailSum += deg(uint32(u)) + deg(v) + deg(w) - 6
				for _, x := range common[i+1:] {
					if hasEdge(adj, w, x) {
						c.Clique++
					}
				}
			}
		}
	}
	c.Path = pathSum - 3*c.Triangle
	c.TailedTriangle = tailSum
	cnt := make([]uint64, n)
	touched := make([]uint32, 0, n)
	var wedgePairs uint64
	for u := range adj {
		touched = touched[:0]
		for _, v := range adj[u] {
			for _, w := range adj[v] {
				if w <= uint32(u) {
					continue
				}
				if cnt[w] == 0 {
					touched = append(touched, w)
				}
				cnt[w]++
			}
		}
		for _, w := range touched {
			wedgePairs += cnt[w] * (cnt[w] - 1) / 2
			cnt[w] = 0
		}
	}
	c.Cycle = wedgePairs / 2
	return c
}

// SolveCensus turns copy counts into the induced census by removing,
// from the densest shape down, the copies that denser induced shapes
// contain (a 4-clique holds 6 diamonds, 3 four-cycles, 12 tailed
// triangles, 12 paths and 4 stars; a diamond holds 1 four-cycle, 4
// tailed triangles, 6 paths and 2 stars; a 4-cycle holds 4 paths; a
// tailed triangle holds 2 paths and 1 star).
func SolveCensus(c Copies) (Census, error) {
	var m Census
	sub := func(total uint64, parts ...uint64) (uint64, error) {
		var s uint64
		for _, p := range parts {
			s += p
		}
		if s > total {
			return 0, fmt.Errorf("census: inconsistent copy counts %+v", c)
		}
		return total - s, nil
	}
	var err error
	m.Clique = c.Clique
	if m.Diamond, err = sub(c.Diamond, 6*m.Clique); err != nil {
		return m, err
	}
	if m.Cycle, err = sub(c.Cycle, m.Diamond, 3*m.Clique); err != nil {
		return m, err
	}
	if m.TailedTriangle, err = sub(c.TailedTriangle, 4*m.Diamond, 12*m.Clique); err != nil {
		return m, err
	}
	if m.Path, err = sub(c.Path, 2*m.TailedTriangle, 4*m.Cycle, 6*m.Diamond, 12*m.Clique); err != nil {
		return m, err
	}
	if m.Star, err = sub(c.Star, m.TailedTriangle, 2*m.Diamond, 4*m.Clique); err != nil {
		return m, err
	}
	return m, nil
}

// shape4 names a connected 4-vertex shape from its edge list.
func shape4(edges [][2]int) (string, error) {
	var deg [4]int
	for _, e := range edges {
		if e[0] < 0 || e[0] > 3 || e[1] < 0 || e[1] > 3 {
			return "", fmt.Errorf("shape4: vertex out of range in %v", edges)
		}
		deg[e[0]]++
		deg[e[1]]++
	}
	maxDeg, minDeg := 0, 3
	for _, d := range deg {
		maxDeg = max(maxDeg, d)
		minDeg = min(minDeg, d)
	}
	switch {
	case minDeg == 0:
	case len(edges) == 3 && maxDeg == 3:
		return "star", nil
	case len(edges) == 3:
		return "path", nil
	case len(edges) == 4 && maxDeg == 2:
		return "cycle", nil
	case len(edges) == 4:
		return "tailed-triangle", nil
	case len(edges) == 5:
		return "diamond", nil
	case len(edges) == 6:
		return "clique", nil
	}
	return "", fmt.Errorf("shape4: %v is not a connected 4-vertex shape", edges)
}

// Of returns the census count of the named shape.
func (m Census) Of(shape string) uint64 {
	switch shape {
	case "star":
		return m.Star
	case "path":
		return m.Path
	case "tailed-triangle":
		return m.TailedTriangle
	case "cycle":
		return m.Cycle
	case "diamond":
		return m.Diamond
	case "clique":
		return m.Clique
	}
	return 0
}

func intersect(dst, a, b []uint32) []uint32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

func hasEdge(adj [][]uint32, u, v uint32) bool {
	row := adj[u]
	i := sort.Search(len(row), func(i int) bool { return row[i] >= v })
	return i < len(row) && row[i] == v
}

// ---- frequent subgraph mining ----

// LPattern is a small labeled pattern in the benchmark's own terms.
type LPattern struct {
	Labels []int32
	Edges  [][2]int
}

// Key is a canonical form: the lexicographically least encoding of
// (labels, adjacency) over all vertex orders. Patterns have at most a
// handful of vertices, so trying every order is cheap.
func (p LPattern) Key() string {
	n := len(p.Labels)
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	for _, e := range p.Edges {
		adj[e[0]][e[1]] = true
		adj[e[1]][e[0]] = true
	}
	best := ""
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var b strings.Builder
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			b.Reset()
			for _, v := range perm {
				fmt.Fprintf(&b, "%d,", p.Labels[v])
			}
			b.WriteByte('|')
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if adj[perm[i]][perm[j]] {
						b.WriteByte('1')
					} else {
						b.WriteByte('0')
					}
				}
			}
			if s := b.String(); best == "" || s < best {
				best = s
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return best
}

// connected reports whether every vertex is reachable from vertex 0.
func (p LPattern) connected() bool {
	n := len(p.Labels)
	seen := make([]bool, n)
	seen[0] = true
	for changed := true; changed; {
		changed = false
		for _, e := range p.Edges {
			if seen[e[0]] != seen[e[1]] {
				seen[e[0]], seen[e[1]] = true, true
				changed = true
			}
		}
	}
	for _, s := range seen {
		if !s {
			return false
		}
	}
	return true
}

// subPatterns returns the connected patterns left by deleting one edge
// (and the vertex it isolates, if any).
func (p LPattern) subPatterns() []LPattern {
	var out []LPattern
	for skip := range p.Edges {
		deg := make([]int, len(p.Labels))
		var edges [][2]int
		for i, e := range p.Edges {
			if i != skip {
				edges = append(edges, e)
				deg[e[0]]++
				deg[e[1]]++
			}
		}
		keep := make([]int, len(p.Labels))
		var labels []int32
		for v := range p.Labels {
			keep[v] = -1
			if deg[v] > 0 {
				keep[v] = len(labels)
				labels = append(labels, p.Labels[v])
			}
		}
		q := LPattern{Labels: labels}
		for _, e := range edges {
			q.Edges = append(q.Edges, [2]int{keep[e[0]], keep[e[1]]})
		}
		if len(q.Edges) > 0 && q.connected() {
			out = append(out, q)
		}
	}
	return out
}

// EdgeSupports computes the MNI support of every single-edge pattern
// directly: for a label pair (a, b) it is the smaller of the number of
// distinct a-vertices with a b-neighbour and the number of distinct
// b-vertices with an a-neighbour. Keys are the LPattern keys.
func EdgeSupports(adj [][]uint32, labels []int32) map[string]int {
	type pair struct{ a, b int32 }
	ends := map[pair]int{} // (label of v, label of a neighbour) -> distinct v
	seen := map[int32]bool{}
	for v, row := range adj {
		clear(seen)
		for _, u := range row {
			lu := labels[u]
			if !seen[lu] {
				seen[lu] = true
				ends[pair{labels[v], lu}]++
			}
		}
	}
	out := map[string]int{}
	for p, n := range ends {
		if p.a > p.b {
			continue
		}
		sup := n
		if m := ends[pair{p.b, p.a}]; m < sup {
			sup = m
		}
		out[LPattern{Labels: []int32{p.a, p.b}, Edges: [][2]int{{0, 1}}}.Key()] = sup
	}
	return out
}

// CheckFSM checks a mining result (canonical key -> support, with the
// patterns themselves) against what can be known without mining:
// every output meets the threshold, every single-edge support equals
// the direct count and every frequent single edge is reported, and
// every output's one-edge-smaller connected sub-patterns are reported
// too (MNI support is anti-monotone).
func CheckFSM(out map[string]int, pats map[string]LPattern, direct map[string]int, minSupport int) error {
	for k, sup := range out {
		if sup < minSupport {
			return fmt.Errorf("fsm: %s has support %d below the threshold %d", k, sup, minSupport)
		}
		p := pats[k]
		if len(p.Edges) == 1 {
			if want := direct[k]; sup != want {
				return fmt.Errorf("fsm: single edge %s has support %d, direct count %d", k, sup, want)
			}
			continue
		}
		for _, q := range p.subPatterns() {
			if _, ok := out[q.Key()]; !ok {
				return fmt.Errorf("fsm: %s is frequent but its sub-pattern %s is not reported", k, q.Key())
			}
		}
	}
	for k, sup := range direct {
		if _, ok := out[k]; sup >= minSupport && !ok {
			return fmt.Errorf("fsm: single edge %s has support %d but is not reported", k, sup)
		}
	}
	return nil
}
