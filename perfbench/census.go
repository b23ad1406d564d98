package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"morphing/internal/apps/mc"
	"morphing/internal/graph"
	"morphing/internal/peregrine"
)

// motif-census: repeated vertex-induced 4-motif censuses (Fig. 12a) on
// a power-law graph with plain CSR and Peregrine. A round is
// censusMorphed morphed censuses and one morphing-off census, the
// paper's comparator.
const censusMorphed = 4

func censusSpec(seed int64) GraphSpec {
	return GraphSpec{Vertices: 3000, Edges: 12000, Exponent: 2.6, Offset: 10, Closures: 5000, Seed: seed}
}

type censusBench struct {
	g     *graph.Graph
	eng   *peregrine.Engine
	want  Census
	setup []time.Duration // edge-list loads
}

func setupCensus(c *Config) (bench, error) {
	spec := censusSpec(c.Seed)
	in, err := Generate(spec)
	if err != nil {
		return nil, err
	}
	c.Input = in.Shape()
	path := filepath.Join(c.Dir, "census.el")
	if err := WriteEdgeListFile(path, spec, in); err != nil {
		return nil, err
	}
	want, err := SolveCensus(CountCopies(in.Adj()))
	if err != nil {
		return nil, err
	}
	s := &censusBench{eng: &peregrine.Engine{Threads: c.Threads}, want: want}
	if s.g, s.setup, err = loadRepeated(path); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *censusBench) round(acc *Acc) {
	for i := 0; i <= censusMorphed; i++ {
		morph := i < censusMorphed
		sp := beginSpan("mc.count", 1, !morph)
		t0 := time.Now()
		res, err := mc.CountCtx(context.Background(), s.g, 4, s.eng, morph)
		d := time.Since(t0)
		sp.end("")
		acc.attempted++
		if err != nil {
			acc.fail("census", err)
			continue
		}
		acc.check(s.verify(res))
		if !morph {
			acc.base = append(acc.base, d)
			continue
		}
		acc.queries++
		acc.lat = append(acc.lat, d)
		acc.busy += d
		acc.addQuery(d, res.Stats)
	}
}

// verify compares every motif count with the solved census.
func (s *censusBench) verify(res *mc.Result) error {
	if len(res.Patterns) != 6 || len(res.Counts) != 6 {
		return fmt.Errorf("census: %d patterns, %d counts, want 6", len(res.Patterns), len(res.Counts))
	}
	for i, p := range res.Patterns {
		shape, err := shape4(p.Edges())
		if err != nil {
			return err
		}
		if got, want := res.Counts[i], s.want.Of(shape); got != want {
			return fmt.Errorf("census: %s count %d, solved %d", shape, got, want)
		}
	}
	return nil
}

func (s *censusBench) setTraced(on bool) { s.eng.Instrument = on }

func (s *censusBench) setupTimes() []time.Duration { return s.setup }

func (s *censusBench) setupLayers() map[string]float64 {
	return map[string]float64{"graph.load_ms": Median(durationsMS(s.setup))}
}

func (s *censusBench) layers(acc *Acc) map[string]float64 { return runLayers(acc) }

func (s *censusBench) close() {}
