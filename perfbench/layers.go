package main

import (
	"sort"
	"time"
)

// layerInputs is what the traced run measured: its phases, snapshots
// around the traced open-loop phase (v1→v2), and the retained traces.
type layerInputs struct {
	closed, closedTraced, open *phaseResult

	v1, v2   vars
	started  time.Time
	retained retainedTraces

	recallAttempted, recallFailed int
}

// traceStages are the per-query trace span names reported as
// trace.<stage>.p50_ms / .p99_ms. "filter" is the unbatched filter stage;
// "scan" is the shared arena scan of a coalesced batch.
var traceStages = []string{"parse", "queue", "sketch", "filter", "scan", "hindex_probe", "hindex_verify", "rank", "cache", "write"}

func delta(a, b vars, name string) float64 { return b.series[name] - a.series[name] }

// histMeanMS is a histogram's mean over the interval in milliseconds (0
// when it observed nothing).
func histMeanMS(a, b vars, name string) float64 {
	n := delta(a, b, name+"_count")
	if n <= 0 {
		return 0
	}
	return delta(a, b, name+"_sum") / n * 1000
}

func histMean(a, b vars, name string) float64 {
	n := delta(a, b, name+"_count")
	if n <= 0 {
		return 0
	}
	return delta(a, b, name+"_sum") / n
}

func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// gcFrac is the GC's share of available CPU over the interval, recovered
// from the since-start fractions memstats reports at both ends.
func gcFrac(a, b vars, started time.Time) float64 {
	ta, tb := a.at.Sub(started).Seconds(), b.at.Sub(started).Seconds()
	if tb <= ta {
		return 0
	}
	f := (b.gcFrac*tb - a.gcFrac*ta) / (tb - ta)
	if f < 0 {
		return 0
	}
	return f
}

// engineStages are the top-level engine spans of a query. The Hamming
// index spans nest inside the filter or scan span, and parse and write are
// the server's own.
var engineStages = map[string]bool{"queue": true, "sketch": true, "filter": true, "exact_filter": true, "scan": true, "rank": true, "cache": true}

// perLayer computes the per-layer metrics, all over the traced open-loop
// phase. Only image-zipf-rw writes; on the read-only workloads the
// write-path figures read zero.
func perLayer(l layerInputs) map[string]Metric {
	m := map[string]Metric{}
	put := func(name, unit string, v float64) { m[name] = Metric{Value: v, Unit: unit} }
	a, b := l.v1, l.v2
	queries := delta(a, b, "ferret_query_total")

	// wire + dispatch. Per traced read, the server's "total" stage runs
	// from the request's dispatch to its encoded answer: the client's
	// round trip minus it is the wire, and it minus the top-level engine
	// spans is the server's own dispatch work. The request histogram
	// covers every request of the phase, writes included.
	var wire, dispatch []float64
	for i := range l.open.samples {
		s := &l.open.samples[i]
		if s.kind != opRead || !s.ok {
			continue
		}
		var total, engine time.Duration
		for _, st := range s.stages {
			if st.Name == "total" {
				total = time.Duration(st.Dur)
			} else if engineStages[st.Name] {
				engine += time.Duration(st.Dur)
			}
		}
		if total > 0 {
			wire = append(wire, ms(s.rtt-total))
			dispatch = append(dispatch, ms(total-engine))
		}
	}
	put("protocol.wire_ms", "ms", mean(wire))
	put("server.request_ms", "ms", histMeanMS(a, b, "ferret_server_request_seconds"))
	put("server.dispatch_ms", "ms", mean(dispatch))
	put("server.wire_buf_miss_frac", "fraction", ratio(delta(a, b, "wire_buf_misses_total"), delta(a, b, "wire_buf_gets_total")))

	// engine
	put("core.query_ms", "ms", histMeanMS(a, b, "ferret_query_seconds"))
	put("core.queue_wait_ms", "ms", histMeanMS(a, b, "ferret_batch_queue_wait_seconds"))
	put("core.batch_size", "count", histMean(a, b, "ferret_batch_size"))

	// sketch, filter, rank stages
	put("core.sketch_ms", "ms", histMeanMS(a, b, "ferret_query_stage_seconds_sketch"))
	put("core.filter_ms", "ms", histMeanMS(a, b, "ferret_query_stage_seconds_filter"))
	put("core.rank_ms", "ms", histMeanMS(a, b, "ferret_query_stage_seconds_rank"))
	put("core.rows_scanned_per_query", "count", ratio(delta(a, b, "ferret_filter_objects_scanned_total"), queries))
	put("core.candidates_per_query", "count", ratio(delta(a, b, "ferret_filter_candidates_total"), queries))
	probes := delta(a, b, "ferret_hindex_probes_total")
	put("hindex.probes_per_query", "count", ratio(probes, queries))
	put("hindex.candidate_frac", "fraction", ratio(delta(a, b, "ferret_hindex_candidates_total"), delta(a, b, "ferret_hindex_baseline_rows_total")))
	put("hindex.fallback_frac", "fraction", ratio(delta(a, b, "ferret_hindex_fallback_total"), probes))
	// Every ranked candidate is evaluated, abandoned mid-solve, or pruned
	// by the sketch lower bound before its solve.
	evals := delta(a, b, "ferret_rank_distance_evals_total")
	pruned := delta(a, b, "ferret_rank_emd_pruned_total")
	abandoned := delta(a, b, "ferret_rank_emd_abandoned_total")
	put("emd.evals_per_query", "count", ratio(evals, queries))
	put("emd.pruned_frac", "fraction", ratio(pruned, evals+abandoned+pruned))
	put("emd.abandoned_frac", "fraction", ratio(abandoned, evals+abandoned))

	// result cache
	hits := delta(a, b, "ferret_result_cache_hits_total")
	put("cache.hit_frac", "fraction", ratio(hits, hits+delta(a, b, "ferret_result_cache_misses_total")))
	wa, wf := l.open.count(opAdd)
	da, df := l.open.count(opDelete)
	nWrites := float64(wa - wf + da - df)
	put("cache.invalidations_per_write", "count", ratio(delta(a, b, "ferret_result_cache_invalidated_total"), nWrites))

	// write path
	put("core.ingest_ms", "ms", histMeanMS(a, b, "ferret_ingest_seconds"))
	put("client.addfile_ms", "ms", mean(l.open.latencies(opAdd, rttOf)))
	put("client.delete_ms", "ms", mean(l.open.latencies(opDelete, rttOf)))
	dead := b.series["ferret_deleted_objects"]
	put("core.tombstone_frac", "fraction", ratio(dead, dead+b.series["ferret_objects"]))
	put("core.seals", "count", delta(a, b, "ferret_seal_total"))
	put("core.merges", "count", delta(a, b, "ferret_merge_total"))

	// traced stages: per-query Stages of the traced open-loop reads; the
	// response write happens after the answer is encoded, so its span
	// comes from the retained traces instead.
	byStage := map[string][]float64{}
	for i := range l.open.samples {
		s := &l.open.samples[i]
		if s.kind == opRead && s.ok {
			for _, st := range s.stages {
				byStage[st.Name] = append(byStage[st.Name], ms(time.Duration(st.Dur)))
			}
		}
	}
	for _, tr := range l.retained.Recent {
		for _, sp := range tr.Spans {
			if sp.Name == "write" {
				byStage["write"] = append(byStage["write"], ms(sp.Dur))
			}
		}
	}
	for _, name := range traceStages {
		xs := byStage[name]
		sort.Float64s(xs)
		put("trace."+name+".p50_ms", "ms", quantile(xs, 0.50))
		put("trace."+name+".p99_ms", "ms", quantile(xs, 0.99))
	}
	put("trace.overhead_frac", "fraction", ratio(readsPerSecond(l.closed), readsPerSecond(l.closedTraced))-1)

	// Go runtime in ferretd
	put("runtime.gc_cpu_frac", "fraction", gcFrac(a, b, l.started))
	put("runtime.heap_mb", "MiB", b.heapMB)

	// generator
	put("gen.lag_p99_ms", "ms", quantile(l.open.latencies(opRead, lagOf), 0.99))
	counts := func(prefix string, p *phaseResult, kinds ...opKind) {
		att, fail := 0, 0
		if p != nil {
			for _, k := range kinds {
				a, f := p.count(k)
				att += a
				fail += f
			}
		}
		put(prefix+".attempted", "count", float64(att))
		put(prefix+".succeeded", "count", float64(att-fail))
		put(prefix+".failed", "count", float64(fail))
	}
	counts("gen.closed_read", l.closedTraced, opRead)
	counts("gen.closed_write", l.closedTraced, opAdd, opDelete)
	counts("gen.open_read", l.open, opRead)
	counts("gen.open_write", l.open, opAdd, opDelete)
	put("gen.recall_read.attempted", "count", float64(l.recallAttempted))
	put("gen.recall_read.succeeded", "count", float64(l.recallAttempted-l.recallFailed))
	put("gen.recall_read.failed", "count", float64(l.recallFailed))
	return m
}

func rttOf(s *sample) time.Duration { return s.rtt }
