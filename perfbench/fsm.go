package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"morphing/internal/apps/fsm"
	"morphing/internal/graph"
	"morphing/internal/peregrine"
)

// fsm-mni: repeated 3-edge frequent subgraph mining with MNI support
// (Fig. 13c) on a labeled power-law graph with Peregrine. A round is
// fsmMorphed morphed mining runs and one morphing-off run.
const (
	fsmMorphed    = 4
	fsmMaxEdges   = 3
	fsmMinSupport = 200
)

func fsmSpec(seed int64) GraphSpec {
	return GraphSpec{Vertices: 6000, Edges: 15000, Exponent: 3.5, Offset: 10, Closures: 3750,
		Labels: 24, ZipfS: 1.2, Seed: seed}
}

type fsmBench struct {
	g     *graph.Graph
	eng   *peregrine.Engine
	want  map[string]int // canonical key -> support, from the checked morphing-off run
	setup []time.Duration
}

func setupFSM(c *Config) (bench, error) {
	spec := fsmSpec(c.Seed)
	in, err := Generate(spec)
	if err != nil {
		return nil, err
	}
	c.Input = in.Shape()
	path := filepath.Join(c.Dir, "fsm.el")
	if err := WriteEdgeListFile(path, spec, in); err != nil {
		return nil, err
	}
	s := &fsmBench{eng: &peregrine.Engine{Threads: c.Threads}}
	if s.g, s.setup, err = loadRepeated(path); err != nil {
		return nil, err
	}
	// The reference: a morphing-off run, checked against what the edge
	// list alone determines.
	freq, _, err := s.mine(false)
	if err != nil {
		return nil, fmt.Errorf("fsm reference: %w", err)
	}
	out, pats := fsmResult(freq)
	if err := CheckFSM(out, pats, EdgeSupports(in.Adj(), in.Labels), fsmMinSupport); err != nil {
		return nil, fmt.Errorf("fsm reference: %w", err)
	}
	s.want = out
	return s, nil
}

func (s *fsmBench) mine(morph bool) ([]fsm.Frequent, *fsm.Stats, error) {
	return fsm.MineCtx(context.Background(), s.g, s.eng,
		fsm.Options{MaxEdges: fsmMaxEdges, MinSupport: fsmMinSupport, Morph: morph})
}

// fsmResult converts the program's output into canonical keys.
func fsmResult(freq []fsm.Frequent) (map[string]int, map[string]LPattern) {
	out := map[string]int{}
	pats := map[string]LPattern{}
	for _, f := range freq {
		p := LPattern{Labels: f.Pattern.Labels(), Edges: f.Pattern.Edges()}
		k := p.Key()
		out[k] = f.Support
		pats[k] = p
	}
	return out, pats
}

func (s *fsmBench) round(acc *Acc) {
	for i := 0; i <= fsmMorphed; i++ {
		morph := i < fsmMorphed
		sp := beginSpan("fsm.mine", 1, !morph)
		t0 := time.Now()
		freq, st, err := s.mine(morph)
		d := time.Since(t0)
		sp.end("")
		acc.attempted++
		if err != nil {
			acc.fail("fsm", err)
			continue
		}
		acc.check(s.verify(freq))
		if !morph {
			acc.base = append(acc.base, d)
			continue
		}
		acc.queries++
		acc.lat = append(acc.lat, d)
		acc.busy += d
		acc.addQuery(d, st.Runs...)
		acc.sums[sCandidates] += float64(st.Candidates)
	}
}

// verify compares a mining result with the checked reference.
func (s *fsmBench) verify(freq []fsm.Frequent) error {
	got, _ := fsmResult(freq)
	if len(got) != len(freq) {
		return fmt.Errorf("fsm: %d outputs but %d distinct patterns", len(freq), len(got))
	}
	if len(got) != len(s.want) {
		return fmt.Errorf("fsm: %d frequent patterns, reference has %d", len(got), len(s.want))
	}
	for k, sup := range s.want {
		if got[k] != sup {
			return fmt.Errorf("fsm: %s support %d, reference %d", k, got[k], sup)
		}
	}
	return nil
}

func (s *fsmBench) setTraced(on bool) { s.eng.Instrument = on }

func (s *fsmBench) setupTimes() []time.Duration { return s.setup }

func (s *fsmBench) setupLayers() map[string]float64 {
	return map[string]float64{"graph.load_ms": Median(durationsMS(s.setup))}
}

func (s *fsmBench) layers(acc *Acc) map[string]float64 { return runLayers(acc) }

func (s *fsmBench) close() {}
