package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"morphing/internal/obs"
)

// Spans come from two places. The benchmark records its own span around
// every call it makes into a layer (graph.load, graph.encode,
// graph.open, server.new, mc.count, fsm.mine, server.submit). The
// program's existing tracer, installed for the traced half of a traced
// run, records the pipeline's own spans (transform, select, mine,
// mine/<pattern>, convert, aggregate), each tagged with its run ID.

// spanRec is one recorded span. Start is measured from the process's
// benchmark epoch.
type spanRec struct {
	Name  string
	Start time.Duration
	Dur   time.Duration
	Lane  int    // 0 = the program's spans; 1+ = a benchmark caller
	Run   string // run ID of a program span
	RunOf string // run ID a server.submit span executed ("" for hits and coalesced)
	// Comparator marks a morphing-off operation: it and the program
	// spans under it are left out of the per-query self times.
	Comparator bool
}

var epoch = time.Now()

// benchSpans holds the benchmark's own spans. Set-up spans are always
// kept (there are a handful per run); per-operation spans only while
// tracing is on, so untraced phases pay nothing for them.
var benchSpans struct {
	mu    sync.Mutex
	on    bool
	spans []spanRec
}

type benchSpan struct {
	name       string
	lane       int
	comparator bool
	begin      time.Time
}

// beginSpan opens a per-operation span; it returns nil when tracing is
// off.
func beginSpan(name string, lane int, comparator bool) *benchSpan {
	benchSpans.mu.Lock()
	on := benchSpans.on
	benchSpans.mu.Unlock()
	if !on {
		return nil
	}
	return &benchSpan{name: name, lane: lane, comparator: comparator, begin: time.Now()}
}

func (s *benchSpan) end(runOf string) {
	if s == nil {
		return
	}
	recordSpan(spanRec{Name: s.name, Start: s.begin.Sub(epoch), Dur: time.Since(s.begin), Lane: s.lane, RunOf: runOf, Comparator: s.comparator})
}

// timeSetup runs one set-up step, records its span and returns its
// duration.
func timeSetup(name string, f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	recordSpan(spanRec{Name: name, Start: t0.Sub(epoch), Dur: d, Lane: 1})
	return d, err
}

func recordSpan(r spanRec) {
	benchSpans.mu.Lock()
	benchSpans.spans = append(benchSpans.spans, r)
	benchSpans.mu.Unlock()
}

// tracing is an active traced phase.
type tracing struct {
	tr     *obs.Tracer
	origin time.Duration // tracer origin, from the epoch
	spans  []spanRec
}

// startTracing installs the program's tracer and turns on the
// benchmark's per-operation spans.
func startTracing() *tracing {
	t := &tracing{origin: time.Since(epoch), tr: obs.NewTracer()}
	obs.SetDefaultTracer(t.tr)
	benchSpans.mu.Lock()
	benchSpans.on = true
	benchSpans.mu.Unlock()
	return t
}

// stop uninstalls the tracer and returns every span: the benchmark's
// (set-up included) and the program's.
func (t *tracing) stop() []spanRec {
	obs.SetDefaultTracer(nil)
	benchSpans.mu.Lock()
	benchSpans.on = false
	out := append([]spanRec(nil), benchSpans.spans...)
	benchSpans.mu.Unlock()
	var buf bytes.Buffer
	_ = t.tr.WriteJSONL(&buf) // writes to a bytes.Buffer cannot fail
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		}
		if json.Unmarshal(sc.Bytes(), &ev) != nil || ev.Ph != "X" {
			continue
		}
		run, _ := ev.Args["run"].(string)
		out = append(out, spanRec{
			Name:  ev.Name,
			Start: t.origin + time.Duration(ev.Ts*1e3),
			Dur:   time.Duration(ev.Dur * 1e3),
			Run:   run,
		})
	}
	t.spans = out
	return out
}

// write saves the spans as a Chrome trace_event document.
func (t *tracing) write(path string) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	doc := struct {
		TraceEvents []event `json:"traceEvents"`
	}{TraceEvents: make([]event, 0, len(t.spans))}
	for _, s := range t.spans {
		e := event{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.Dur) / 1e3, Pid: 1, Tid: s.Lane}
		if s.Run != "" || s.RunOf != "" {
			e.Args = map[string]string{"run": s.Run + s.RunOf}
		}
		doc.TraceEvents = append(doc.TraceEvents, e)
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerOf maps a span name to its layer.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "graph."):
		return "graph"
	case strings.HasPrefix(name, "server."):
		return "server"
	case name == "mc.count" || name == "fsm.mine":
		return "app"
	case strings.HasPrefix(name, "mine/"):
		return "engine"
	}
	return "core"
}

// selfTimes computes each layer's self time: a span's duration minus
// the time its child spans cover. A program span's parent is found
// within its run by containment (a run's spans are sequential); a run's
// top-level spans belong to the server.submit span that executed that
// run, or else to the benchmark span that contains them in time. Set-up
// spans give graph.self_ms per set-up; the rest are per query of the
// traced phase.
func selfTimes(spans []spanRec, queries int) map[string]float64 {
	byRun := map[string][]int{}
	var bench []int
	for i, s := range spans {
		if s.Lane == 0 {
			byRun[s.Run] = append(byRun[s.Run], i)
		} else {
			bench = append(bench, i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.Dur
	}
	covers := func(p, c spanRec) bool { return c.Start >= p.Start && c.Start+c.Dur <= p.Start+p.Dur }
	runOwner := map[string]int{}
	for _, b := range bench {
		if r := spans[b].RunOf; r != "" {
			runOwner[r] = b
		}
	}
	skip := make([]bool, len(spans))
	for run, idx := range byRun {
		sort.Slice(idx, func(a, b int) bool {
			sa, sb := spans[idx[a]], spans[idx[b]]
			if sa.Start != sb.Start {
				return sa.Start < sb.Start
			}
			return sa.Dur > sb.Dur
		})
		owner, ok := runOwner[run]
		if !ok {
			owner = -1
			for _, b := range bench {
				if spans[b].Name != "server.submit" && covers(spans[b], spans[idx[0]]) {
					owner = b
					break
				}
			}
		}
		var stack []int
		for _, i := range idx {
			for len(stack) > 0 && !covers(spans[stack[len(stack)-1]], spans[i]) {
				stack = stack[:len(stack)-1]
			}
			switch {
			case len(stack) > 0:
				self[stack[len(stack)-1]] -= spans[i].Dur
			case owner >= 0:
				self[owner] -= spans[i].Dur
			}
			skip[i] = owner >= 0 && spans[owner].Comparator
			stack = append(stack, i)
		}
	}
	totals := map[string]time.Duration{}
	setups := 0
	for i, s := range spans {
		if s.Name == "graph.load" {
			setups++
		}
		if !skip[i] && !s.Comparator {
			totals[layerOf(s.Name)] += self[i]
		}
	}
	out := map[string]float64{}
	if setups > 0 {
		out["graph.self_ms"] = ms(totals["graph"]) / float64(setups)
	}
	var serverSetup time.Duration
	for _, s := range spans {
		if s.Name == "server.new" {
			serverSetup += s.Dur
		}
	}
	if queries > 0 {
		q := float64(queries)
		out["server.self_ms_per_query"] = ms(totals["server"]-serverSetup) / q
		out["app.self_ms_per_query"] = ms(totals["app"]) / q
		out["core.self_ms_per_query"] = ms(totals["core"]) / q
		out["engine.self_ms_per_query"] = ms(totals["engine"]) / q
	}
	return out
}
