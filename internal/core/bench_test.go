package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"ferret/internal/metastore"
	"ferret/internal/object"
	"ferret/internal/sketch"
	"ferret/internal/telemetry/trace"
)

// The FilterScan pair measures the tentpole: the arena filter scan against a
// faithful replica of the pre-arena filtering unit (slice-of-slices sketch
// storage, per-call sketch.Hamming, map-based candidate union). Both run the
// same workload — image-style 96-bit sketches, where per-segment call and
// pointer-chasing overhead (not memory bandwidth) dominates the scan. The
// committed BENCH_2.json tracks their ratio; `make check-bench` fails on
// regression.

const (
	benchDim     = 14
	benchObjects = 5000
	benchSegs    = 4
	benchBits    = 96
)

func benchEngine(b *testing.B, tune func(*Config)) (*Engine, object.Object, *metastore.SketchSet) {
	b.Helper()
	min := make([]float32, benchDim)
	max := make([]float32, benchDim)
	for i := range max {
		max[i] = 1
	}
	cfg := Config{
		Dir:    b.TempDir(),
		Sketch: sketch.Params{N: benchBits, K: 1, Min: min, Max: max, Seed: 80},
	}
	if tune != nil {
		tune(&cfg)
	}
	e, err := Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	rng := rand.New(rand.NewSource(81))
	for i := 0; i < benchObjects; i++ {
		o := clusterObject(fmt.Sprintf("b%05d", i), i%64, benchDim, benchSegs, 0.02, rng)
		if _, err := e.Ingest(o, nil); err != nil {
			b.Fatal(err)
		}
	}
	q := clusterObject("q", 11, benchDim, benchSegs, 0.02, rng)
	return e, q, e.buildSketchSet(q)
}

func benchFilterOpts() QueryOptions {
	// Mirror the experiments harness's speed-run filter shape.
	return QueryOptions{K: 10, Filter: FilterParams{QuerySegments: 3, NearestPerSegment: 50}}
}

func BenchmarkFilterScanArena(b *testing.B) {
	e, q, qset := benchEngine(b, nil)
	opt := benchFilterOpts()
	sc := getScratch()
	defer putScratch(sc)
	sc.clk.reset(context.Background(), 0)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.filter(&sc.clk, &q, qset, opt, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHammingIndexProbe measures the indexed filter path end to end —
// bucket descent across the substring tables, candidate sort/dedup, and
// kernel verification — on the same corpus BenchmarkFilterScanArena streams
// in full. The tight Hamming threshold keeps the query inside the index's
// exact radius so every probe is served by the index; the guard below fails
// the benchmark rather than silently measuring the scan fallback.
func BenchmarkHammingIndexProbe(b *testing.B) {
	e, q, qset := benchEngine(b, func(cfg *Config) {
		cfg.HIndex = HIndexParams{Enable: true, Tables: 4}
	})
	opt := QueryOptions{K: 10, Filter: FilterParams{QuerySegments: 3, NearestPerSegment: 50, MaxHammingFrac: 0.03}}
	sc := getScratch()
	defer putScratch(sc)
	sc.clk.reset(context.Background(), 0)
	if _, err := e.filter(&sc.clk, &q, qset, opt, sc); err != nil {
		b.Fatal(err)
	}
	if mode := sc.filterMode(); mode != FilterModeIndex {
		b.Fatalf("filter mode %q, want %q: the benchmark would measure the scan fallback", mode, FilterModeIndex)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.filter(&sc.clk, &q, qset, opt, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// legacyEntry is the pre-arena per-object sketch record: one independently
// allocated sketch slice per segment.
type legacyEntry struct {
	id       object.ID
	sketches []sketch.Sketch
}

// legacyFilter replicates the pre-arena filtering unit over slice-of-slices
// entries: sort.Slice segment ordering, a fresh heap per query segment,
// per-call sketch.Hamming on each segment sketch, and a map candidate union.
func legacyFilter(entries []legacyEntry, qset *metastore.SketchSet, nBits int, p FilterParams) []int {
	order := make([]int, len(qset.Sketches))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return qset.Weights[order[a]] > qset.Weights[order[b]] })
	order = order[:p.QuerySegments]

	candidates := make(map[int]struct{})
	for _, qi := range order {
		w := float64(qset.Weights[qi])
		frac := p.MaxHammingFrac * (1 - p.WeightTighten*w)
		maxHam := int(frac * float64(nBits))
		qsk := qset.Sketches[qi]
		heap := newSegHeap(p.NearestPerSegment)
		for idx := range entries {
			ent := &entries[idx]
			bound := maxHam
			if w := heap.worst(); w <= bound {
				bound = w - 1
			}
			for si := range ent.sketches {
				h := sketch.Hamming(qsk, ent.sketches[si])
				if h <= bound {
					heap.push(idx, h)
					if w := heap.worst(); w <= maxHam && w-1 < bound {
						bound = w - 1
					}
				}
			}
		}
		for _, idx := range heap.items() {
			candidates[idx] = struct{}{}
		}
	}
	out := make([]int, 0, len(candidates))
	for idx := range candidates {
		out = append(out, idx)
	}
	sort.Ints(out)
	return out
}

func BenchmarkFilterScanLegacy(b *testing.B) {
	e, _, qset := benchEngine(b, nil)
	// Rebuild the old layout from the arena, allocating each sketch
	// separately with interleaved decoy allocations so the slices scatter
	// across the heap the way incremental ingest scattered them.
	var decoys [][]byte
	entries := make([]legacyEntry, len(e.entries))
	for idx := range e.entries {
		sg, li := e.segOf(idx)
		lo, hi := sg.arena.rowsOf(li)
		sks := make([]sketch.Sketch, 0, hi-lo)
		for r := lo; r < hi; r++ {
			sk := make(sketch.Sketch, sg.arena.wps)
			copy(sk, sg.arena.at(r))
			sks = append(sks, sk)
			decoys = append(decoys, make([]byte, 64))
		}
		entries[idx] = legacyEntry{id: e.entries[idx].id, sketches: sks}
	}
	_ = decoys
	p := benchFilterOpts().Filter.withDefaults(len(qset.Sketches), 10)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := legacyFilter(entries, qset, benchBits, p); len(got) == 0 {
			b.Fatal("no candidates")
		}
	}
}

// The QueryPipeline pair measures end-to-end Filtering-mode queries with the
// sketch lower-bound EMD prune on (default) and off.

func benchPipeline(b *testing.B, disablePrune bool) {
	e, q, _ := benchEngine(b, func(cfg *Config) {
		cfg.RankThreshold = 2
		cfg.Prune.Disable = disablePrune
	})
	opt := benchFilterOpts()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(q, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reg := e.Telemetry()
	b.ReportMetric(reg.Value("ferret_rank_distance_evals_total")/float64(b.N), "emd_evals/op")
	b.ReportMetric(reg.Value("ferret_rank_emd_pruned_total")/float64(b.N), "emd_pruned/op")
}

func BenchmarkQueryPipelinePruned(b *testing.B)   { benchPipeline(b, false) }
func BenchmarkQueryPipelineUnpruned(b *testing.B) { benchPipeline(b, true) }

// BenchmarkQueryPipelineConcurrent drives Filtering-mode queries from eight
// closed-loop clients, each running the serial pipeline on its own
// goroutine: ns/op is the amortized per-query wall time under concurrent
// load. Compare against BenchmarkQueryPipelinePruned (the one-query-at-a-
// time cost); `make check-bench` gates this one against regression.
func BenchmarkQueryPipelineConcurrent(b *testing.B) {
	e, q, _ := benchEngine(b, func(cfg *Config) {
		cfg.RankThreshold = 2
	})
	opt := benchFilterOpts()
	b.SetParallelism(8) // 8 client goroutines at GOMAXPROCS=1
	b.ResetTimer()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := e.Query(q, opt); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkQueryPipelineTraced is BenchmarkQueryPipelineConcurrent with the
// tracer recording every query but retaining none (head sampling and the
// slow trigger disabled): the cost of always-on span recording alone, with
// the retention snapshot path never taken. `make check-bench` gates it so
// tracing stays ~free on the hot path.
func BenchmarkQueryPipelineTraced(b *testing.B) {
	e, q, _ := benchEngine(b, func(cfg *Config) {
		cfg.RankThreshold = 2
		cfg.Trace = trace.Params{SampleEvery: -1, SlowThreshold: -1}
	})
	opt := benchFilterOpts()
	b.SetParallelism(8)
	b.ResetTimer()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := e.Query(q, opt); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	if got := e.Telemetry().Value("ferret_traces_retained_total"); got != 0 {
		b.Fatalf("%g traces retained with retention disabled", got)
	}
}
