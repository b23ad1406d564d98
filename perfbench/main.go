// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one workload through the program's public entry
// points, checks every answer against a computation of its own, and
// prints one JSON result line:
//
//	go build -o perfbench . && ./perfbench --workload motif-census --seed 1 --seconds 25 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the
// per-layer metrics of a separate, traced run. --repeat N runs the
// workload N times in child processes with seeds seed..seed+N-1 and
// prints each metric's median, quartiles, minimum and maximum. See
// README.md for the workloads, metrics and reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"morphing/internal/graph"
)

// Metric is one named measurement as printed.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line a run prints.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Config is what a workload is run with.
type Config struct {
	Seed    int64
	Seconds float64
	Dir     string // scratch directory for this run's inputs and trace
	Threads int    // engine threads that may run at once
	Input   Shape  // the generated input, reported with the result
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 9

// loadRepeated loads the edge list setupRepeats times, timing each load,
// and keeps the last graph.
func loadRepeated(path string) (*graph.Graph, []time.Duration, error) {
	var g *graph.Graph
	var times []time.Duration
	for i := 0; i < setupRepeats; i++ {
		d, err := timeSetup("graph.load", func() error {
			var err error
			g, err = graph.LoadEdgeListFile(path, nil)
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		times = append(times, d)
	}
	return g, times, nil
}

// workload builds a bench: it generates and writes the inputs, then
// performs and times set-up.
type workload struct {
	name  string
	setup func(c *Config) (bench, error)
}

// bench is a set-up workload.
type bench interface {
	// round runs the workload's fixed, seeded operation list once,
	// recording every operation into acc.
	round(acc *Acc)
	// setTraced switches engine instrumentation on or off for later
	// rounds.
	setTraced(on bool)
	// setupTimes are the repeated set-up measurements, and setupLayers
	// the graph-layer set-up figures.
	setupTimes() []time.Duration
	setupLayers() map[string]float64
	// layers computes the workload's per-layer figures from a phase.
	layers(acc *Acc) map[string]float64
	close()
}

var workloads = []workload{
	{"motif-census", setupCensus},
	{"fsm-mni", setupFSM},
	{"morphd-mix", setupMix},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: motif-census, fsm-mni or morphd-mix")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 25, "length of the measured phase")
		trace   = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		repeat  = flag.Int("repeat", 0, "run the workload this many times in child processes and summarize")
		dir     = flag.String("dir", filepath.Join(".bench_build", "perfbench-data"), "scratch directory for inputs and traces")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload motif-census|fsm-mni|morphd-mix, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	if *repeat > 0 {
		if err := repeatRuns(*name, *dir, *seed, *seconds, *trace, *repeat); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	cfg := &Config{
		Seed:    *seed,
		Seconds: *seconds,
		Dir:     filepath.Join(*dir, fmt.Sprintf("%s-%d", *name, *seed)),
		Threads: min(2, runtime.NumCPU()),
	}
	res, info, err := run(w, cfg, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	info["env"] = environment(*seed)
	info["input"] = cfg.Input
	info["workload"] = *name
	line, _ := json.Marshal(info)
	fmt.Println(string(line))
	line, _ = json.Marshal(res)
	fmt.Println(string(line))
}

// run sets the workload up, runs one untimed warm-up round, then the
// measured phase. A traced run measures an untraced half and a traced
// half and reports the per-layer metrics; the traced half supplies the
// timers and span self times, the untraced half everything else.
func run(w *workload, cfg *Config, traced bool) (*Result, map[string]any, error) {
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	s, err := w.setup(cfg)
	if err != nil {
		return nil, nil, err
	}
	defer s.close()
	s.round(newAcc()) // warm-up: fills canon caches and arena pools
	info := map[string]any{}
	if !traced {
		acc := measure(s, cfg.Seconds)
		res := acc.result(e2eMetrics(s, acc, info))
		return res, info, nil
	}
	plain := measure(s, cfg.Seconds/2)
	tr := startTracing()
	s.setTraced(true)
	traced2 := measure(s, cfg.Seconds/2)
	s.setTraced(false)
	spans := tr.stop()
	path := filepath.Join(cfg.Dir, "trace.json")
	if err := tr.write(path); err != nil {
		return nil, nil, err
	}
	info["trace_file"] = path
	m := layerMetrics(s, plain, traced2, spans)
	res := plain.result(m)
	res.Attempted += traced2.attempted
	res.Failed += traced2.failed
	res.Correct = res.Correct && traced2.wrong == 0
	return res, info, nil
}

// measure repeats whole rounds until at least seconds have passed.
func measure(s bench, seconds float64) *Acc {
	acc := newAcc()
	start := time.Now()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for acc.rounds == 0 || time.Since(start).Seconds() < seconds {
		s.round(acc)
		acc.rounds++
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	acc.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	acc.gcCycles = ms1.NumGC - ms0.NumGC
	return acc
}

// Acc accumulates one measured phase.
type Acc struct {
	rounds            int
	attempted, failed int
	wrong             int
	firstWrong        string
	queries           int             // operations that count as queries
	lat               []time.Duration // per-query latency
	base              []time.Duration // per-operation latency of the morphing-off comparator
	busy              time.Duration   // time that throughput divides by
	sums              map[string]float64
	allocBytes        uint64
	gcCycles          uint32
}

func newAcc() *Acc { return &Acc{sums: map[string]float64{}} }

// fail records an operation that returned an error.
func (a *Acc) fail(op string, err error) {
	a.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", op, err)
}

// check records an output that disagrees with the expected answer.
func (a *Acc) check(err error) {
	if err == nil {
		return
	}
	a.wrong++
	if a.firstWrong == "" {
		a.firstWrong = err.Error()
		fmt.Fprintln(os.Stderr, "perfbench: wrong output:", err)
	}
}

func (a *Acc) result(m map[string]Metric) *Result {
	return &Result{Correct: a.wrong == 0, Attempted: a.attempted, Failed: a.failed, Metrics: m}
}

// perQuery divides a summed figure by the phase's query count.
func (a *Acc) perQuery(name string) float64 {
	if a.queries == 0 {
		return 0
	}
	return a.sums[name] / float64(a.queries)
}

func e2eMetrics(s bench, acc *Acc, info map[string]any) map[string]Metric {
	setup := make([]float64, 0, len(s.setupTimes()))
	for _, d := range s.setupTimes() {
		setup = append(setup, d.Seconds())
	}
	lat := durationsMS(acc.lat)
	tail, pct := Tail(lat)
	info["latency_samples"] = len(lat)
	info["latency_deciles_ms"] = deciles(lat)
	info["tail_percentile"] = pct
	info["baseline_samples"] = len(acc.base)
	info["setup_repeats"] = len(setup)
	qps := 0.0
	if acc.busy > 0 {
		qps = float64(acc.queries) / acc.busy.Seconds()
	}
	return map[string]Metric{
		"setup_s":         {Median(setup), "s"},
		"throughput_qps":  {qps, "queries/s"},
		"latency_p50_ms":  {Median(lat), "ms"},
		"latency_tail_ms": {tail, "ms"},
		"baseline_p50_ms": {Median(durationsMS(acc.base)), "ms"},
		"peak_rss_mib":    {float64(PeakRSS()) / (1 << 20), "MiB"},
	}
}

// layerUnits lists every per-layer metric with its unit. Every traced
// run prints all of them; a layer a workload does not use reads 0.
var layerUnits = map[string]string{
	"graph.load_ms":                       "ms",
	"graph.encode_ms":                     "ms",
	"graph.open_ms":                       "ms",
	"graph.bytes_per_edge":                "B/edge",
	"graph.decoded_elems_per_query":       "count",
	"graph.probe_hit_ratio":               "ratio",
	"core.transform_ms_per_query":         "ms",
	"core.mine_ms_per_query":              "ms",
	"core.convert_ms_per_query":           "ms",
	"core.residue_ms_per_query":           "ms",
	"core.predicted_cost_ratio":           "ratio",
	"engine.set_ops_per_query":            "count",
	"engine.set_elems_per_query":          "count",
	"engine.trie_shared_levels_per_query": "count",
	"engine.worker_skew":                  "ratio",
	"engine.matches_per_query":            "count",
	"engine.branches_per_query":           "count",
	"setops.countonly_share":              "ratio",
	"setops.scalar_share":                 "ratio",
	"setops.written_elems_per_query":      "count",
	"aggr.mni_inserts_per_query":          "count",
	"fsm.candidates_per_query":            "count",
	"server.admit_ms_p50":                 "ms",
	"server.queue_ms_p50":                 "ms",
	"server.mine_ms_p50":                  "ms",
	"server.queue_ms_tail":                "ms",
	"server.queue_depth_max":              "count",
	"server.unmined_share":                "ratio",
	"runtime.alloc_mib_per_query":         "MiB",
	"runtime.gc_cycles_per_query":         "count",
	"engine.setop_ms_per_query":           "ms",
	"engine.materialize_ms_per_query":     "ms",
	"aggr.mni_insert_ms_per_query":        "ms",
	"graph.self_ms":                       "ms",
	"server.self_ms_per_query":            "ms",
	"app.self_ms_per_query":               "ms",
	"core.self_ms_per_query":              "ms",
	"engine.self_ms_per_query":            "ms",
	"trace.overhead_pct":                  "%",
}

// tracedOnly names the per-layer metrics taken from the traced half.
var tracedOnly = []string{
	"engine.setop_ms_per_query", "engine.materialize_ms_per_query", "aggr.mni_insert_ms_per_query",
}

func layerMetrics(s bench, plain, traced *Acc, spans []spanRec) map[string]Metric {
	vals := map[string]float64{}
	for k, v := range s.setupLayers() {
		vals[k] = v
	}
	for k, v := range s.layers(plain) {
		vals[k] = v
	}
	tl := s.layers(traced)
	for _, k := range tracedOnly {
		vals[k] = tl[k]
	}
	// The runtime figures cover every operation of the phase, the
	// morphing-off comparator's too.
	if plain.attempted > 0 {
		vals["runtime.alloc_mib_per_query"] = float64(plain.allocBytes) / (1 << 20) / float64(plain.attempted)
		vals["runtime.gc_cycles_per_query"] = float64(plain.gcCycles) / float64(plain.attempted)
	}
	for k, v := range selfTimes(spans, traced.queries) {
		vals[k] = v
	}
	if p0 := Median(durationsMS(plain.lat)); p0 > 0 {
		vals["trace.overhead_pct"] = 100 * (Median(durationsMS(traced.lat)) - p0) / p0
	}
	out := make(map[string]Metric, len(layerUnits))
	for k, unit := range layerUnits {
		out[k] = Metric{vals[k], unit}
	}
	return out
}

// repeatRuns runs the workload n times, each in a child process of this
// binary with its own seed, and prints a summary of every metric.
func repeatRuns(name, dir string, seed int64, seconds float64, trace, n int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	vals := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		res, err := runChild(exe, name, dir, seed+int64(i), seconds, trace)
		if err != nil {
			return err
		}
		if !res.Correct || res.Failed > 0 {
			return fmt.Errorf("seed %d: correct=%v failed=%d of %d", seed+int64(i), res.Correct, res.Failed, res.Attempted)
		}
		for k, m := range res.Metrics {
			vals[k] = append(vals[k], m.Value)
			units[k] = m.Unit
		}
		fmt.Fprintf(os.Stderr, "perfbench: run %d/%d (seed %d) done\n", i+1, n, seed+int64(i))
	}
	names := make([]string, 0, len(vals))
	for k := range vals {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%-38s %-9s %12s %12s %12s %12s %12s %8s\n", "metric", "unit", "min", "q1", "median", "q3", "max", "iqr/med")
	for _, k := range names {
		xs := vals[k]
		q1, med, q3 := Quartiles(xs)
		s := sortedCopy(xs)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Printf("%-38s %-9s %12.4f %12.4f %12.4f %12.4f %12.4f %8.4f\n",
			k, units[k], s[0], q1, med, q3, s[len(s)-1], spread)
	}
	return nil
}

func runChild(exe, name, dir string, seed int64, seconds float64, trace int) (*Result, error) {
	cmd := exec.Command(exe, "--workload", name, "--dir", dir, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("seed %d: %w", seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res Result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("seed %d: result line: %w", seed, err)
	}
	return &res, nil
}
