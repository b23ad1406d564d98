package main

import (
	"time"

	"morphing/internal/core"
	"morphing/internal/engine"
	"morphing/internal/graph"
)

// Keys of Acc.sums that are summed over queries and reported per query.
// Shares and ratios are derived from them in runLayers.
const (
	sTransform     = "core.transform_ms_per_query"
	sMine          = "core.mine_ms_per_query"
	sConvert       = "core.convert_ms_per_query"
	sResidue       = "core.residue_ms_per_query"
	sCostRatio     = "core.predicted_cost_ratio"
	sSetOps        = "engine.set_ops_per_query"
	sSetElems      = "engine.set_elems_per_query"
	sShared        = "engine.trie_shared_levels_per_query"
	sSkew          = "engine.worker_skew"
	sMatches       = "engine.matches_per_query"
	sBranches      = "engine.branches_per_query"
	sWritten       = "setops.written_elems_per_query"
	sInserts       = "aggr.mni_inserts_per_query"
	sCandidates    = "fsm.candidates_per_query"
	sDecoded       = "graph.decoded_elems_per_query"
	sSetOpTime     = "engine.setop_ms_per_query"
	sMaterialize   = "engine.materialize_ms_per_query"
	sInsertTime    = "aggr.mni_insert_ms_per_query"
	sCountOnly     = "countonly_ops"
	sMergeOps      = "merge_ops"
	sProbeHits     = "probe_hits"
	sProbeMisses   = "probe_misses"
	sCostSamples   = "cost_samples"
	sSkewSamples   = "skew_samples"
	sDecodeSamples = "decode_samples"
)

// addRun adds one pipeline run's RunStats to the phase sums.
func (a *Acc) addRun(st *core.RunStats) {
	if st == nil {
		return
	}
	a.sums[sTransform] += ms(st.Transform)
	a.sums[sConvert] += ms(st.Convert)
	if sel := st.Selection; sel != nil && sel.CostBefore > 0 && sel.CostAfter > 0 {
		a.sums[sCostRatio] += sel.CostAfter / sel.CostBefore
		a.sums[sCostSamples]++
	}
	if m := st.Mining; m != nil {
		a.sums[sMine] += ms(m.TotalTime)
		a.addEngine(m)
	}
	if d := st.Decode; d != nil {
		a.addDecode(*d)
	}
}

// addEngine adds one execution's engine counters.
func (a *Acc) addEngine(m *engine.Stats) {
	a.sums[sSetOps] += float64(m.SetOps)
	a.sums[sSetElems] += float64(m.SetElems)
	a.sums[sShared] += float64(m.TrieSharedLevels)
	a.sums[sMatches] += float64(m.Matches)
	a.sums[sBranches] += float64(m.Branches)
	a.sums[sWritten] += float64(m.SetWritten)
	a.sums[sInserts] += float64(m.UDFCalls)
	a.sums[sCountOnly] += float64(m.SetCountOps)
	a.sums[sMergeOps] += float64(m.SetMergeOps)
	a.sums[sSetOpTime] += ms(m.SetOpTime)
	a.sums[sMaterialize] += ms(m.MaterializeTime)
	a.sums[sInsertTime] += ms(m.UDFTime)
	if skew := workerSkew(m.Workers); skew > 0 {
		a.sums[sSkew] += skew
		a.sums[sSkewSamples]++
	}
}

func (a *Acc) addDecode(d graph.DecodeStats) {
	a.sums[sDecoded] += float64(d.Elems)
	a.sums[sProbeHits] += float64(d.ProbeHits)
	a.sums[sProbeMisses] += float64(d.ProbeMisses)
	a.sums[sDecodeSamples]++
}

// workerSkew is the busiest worker's time over the mean.
func workerSkew(ws []engine.WorkerStats) float64 {
	var sum, max time.Duration
	for _, w := range ws {
		sum += w.Time
		if w.Time > max {
			max = w.Time
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) * float64(len(ws)) / float64(sum)
}

// runLayers derives the per-query, share and ratio figures from a
// phase's sums.
func runLayers(a *Acc) map[string]float64 {
	out := map[string]float64{}
	for _, k := range []string{sTransform, sMine, sConvert, sResidue, sSetOps, sSetElems, sShared,
		sMatches, sBranches, sWritten, sInserts, sCandidates, sDecoded, sSetOpTime, sMaterialize, sInsertTime} {
		out[k] = a.perQuery(k)
	}
	ratio := func(num, den string) float64 {
		if a.sums[den] == 0 {
			return 0
		}
		return a.sums[num] / a.sums[den]
	}
	out[sCostRatio] = ratio(sCostRatio, sCostSamples)
	out[sSkew] = ratio(sSkew, sSkewSamples)
	out["setops.countonly_share"] = ratio(sCountOnly, sSetOps)
	out["setops.scalar_share"] = ratio(sMergeOps, sSetOps)
	if probes := a.sums[sProbeHits] + a.sums[sProbeMisses]; probes > 0 {
		out["graph.probe_hit_ratio"] = a.sums[sProbeHits] / probes
	}
	return out
}

// addQuery records one query's pipeline runs and its residue: the
// query's wall time that the runs' transform, mine and convert phases
// do not account for.
func (a *Acc) addQuery(wall time.Duration, runs ...*core.RunStats) {
	before := a.sums[sTransform] + a.sums[sMine] + a.sums[sConvert]
	for _, st := range runs {
		a.addRun(st)
	}
	a.sums[sResidue] += ms(wall) - (a.sums[sTransform] + a.sums[sMine] + a.sums[sConvert] - before)
}
