package core

import (
	"errors"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"ferret/internal/metastore"
	"ferret/internal/object"
	"ferret/internal/sketch"
	"ferret/internal/telemetry/trace"
)

// queryScratch pools the filtering and ranking units' per-query scratch
// state — segment ordering, candidate lists, bounded heaps, batch distance
// blocks and lower-bound tables — so repeated queries allocate nothing on
// the filter path (verified by TestFilterPathAllocs).
type queryScratch struct {
	order []int      // query segments by descending weight
	cands []int      // candidate entry indices (union over query segments)
	heaps []*segHeap // k-nearest heaps: 0 = accumulator, 1 = index probe
	hits  []int32    // block-relative row indices selected by the scan kernel
	dist  []int32    // Hamming distances of the selected rows
	probe []int32    // candidate rows streamed out of the Hamming index
	seen  []uint64   // per-row dedup bitmap for the index descent (kept zero)

	// Filter-mode accounting for the answer's mode=index|scan flag: (query
	// segment × storage segment) units served by a Hamming-index probe vs.
	// by an arena scan.
	idxSegs, scanSegs int

	// Ranking-unit scratch (sketch lower-bound pruning).
	lbs    []lbCand
	colMin []float64
	qw     []float64
	ow     []float64

	// clk is the query's cancellation/budget clock, pooled here so the
	// filter path stays allocation-free.
	clk queryClock

	// trp points at the query's active trace recording buffer — own, or
	// the caller-supplied one from QueryOptions.Trace. nil (or a disarmed
	// target) makes every recording call a no-op, so the filter path stays
	// allocation-free either way. Cleared by putScratch.
	trp *trace.Active
	// own is the engine-armed trace buffer for queries whose caller did not
	// supply one. Pooled by value with the scratch: arming it never
	// allocates.
	own trace.Active

	// Ranking-unit statistics for the rank trace span, reset and read by
	// rankLocked and written where the rank metrics are published.
	rankEvals, rankPruned, rankAbandoned int
}

var scratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

func getScratch() *queryScratch {
	sc := scratchPool.Get().(*queryScratch)
	// Zero the per-query mode accounting here, not only in filter():
	// brute-force and sketch-only queries never run the filter stage, and a
	// reused scratch must not leak the previous query's FilterMode.
	sc.idxSegs, sc.scanSegs = 0, 0
	return sc
}

func putScratch(sc *queryScratch) {
	sc.trp = nil // never let a caller-owned trace buffer dangle in the pool
	scratchPool.Put(sc)
}

// heap returns the i-th pooled segment heap reset to capacity k.
func (sc *queryScratch) heap(i, k int) *segHeap {
	for len(sc.heaps) <= i {
		sc.heaps = append(sc.heaps, newSegHeap(k))
	}
	sc.heaps[i].reset(k)
	return sc.heaps[i]
}

// batchRows is the filter scan's block size: big enough to amortize the
// select kernel call, small enough that the k-nearest bound re-tightens
// frequently and the hit buffers stay in L1.
const batchRows = 512

// selectBlocks returns the pooled hit-index and distance blocks for the
// select kernel.
func (sc *queryScratch) selectBlocks() ([]int32, []int32) {
	if cap(sc.hits) < batchRows {
		sc.hits = make([]int32, batchRows)
		sc.dist = make([]int32, batchRows)
	}
	return sc.hits[:batchRows], sc.dist[:batchRows]
}

// resizeF64 grows (or shrinks) a pooled float64 slice to length n.
func resizeF64(s *[]float64, n int) []float64 {
	if cap(*s) < n {
		*s = make([]float64, n)
	}
	*s = (*s)[:n]
	return *s
}

// filter implements the filtering unit: for each of the r highest-weight
// query segments, stream through all dataset segment sketches (or, on the
// exact path, all feature vectors) and keep the k nearest within a
// weight-dependent threshold; the deduplicated union of the owning objects
// is the candidate set (as sorted entry indices). q may be nil for
// sketch-only queries. The sketch scan runs over the flat arena: the fast
// path (no tombstones, no restriction) sweeps rows word-wise with the
// batch Hamming kernel; the slow path walks entries to honor tombstones
// and Restrict sets.
func (e *Engine) filter(clk *queryClock, q *object.Object, qset *metastore.SketchSet, opt QueryOptions, sc *queryScratch) ([]int, error) {
	p := opt.Filter
	if p == (FilterParams{}) {
		p = e.cfg.Filter
	}
	p = p.withDefaults(len(qset.Sketches), opt.K)
	sc.idxSegs, sc.scanSegs = 0, 0
	if p.ExactDistance {
		exStart := time.Now()
		cands, err := e.filterExact(clk, q, p, opt)
		sc.scanSegs++
		sc.trp.Record(StageExactFilter, exStart, time.Since(exStart)).
			SetAttr("candidates", int64(len(cands)))
		return cands, err
	}
	stageStart := time.Now()
	scanned := 0

	// Pick the r highest-weight query segments. Insertion sort: segment
	// counts are small and it is deterministic and allocation-free.
	order := sc.order[:0]
	for i := range qset.Sketches {
		order = append(order, i)
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && qset.Weights[order[j]] > qset.Weights[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	sc.order = order
	order = order[:p.QuerySegments]

	cands := sc.cands[:0]
	n := e.builder.N()
	for _, qi := range order {
		if clk.stop() {
			break
		}
		w := float64(qset.Weights[qi])
		frac := p.MaxHammingFrac * (1 - p.WeightTighten*w)
		maxHam := int(frac * float64(n))
		qsk := qset.Sketches[qi]

		// One accumulator heap per query segment, fed by every storage
		// segment in turn: pushes apply the global (hamming, entry) pair
		// order, so the result is bit-identical to a single-arena pass no
		// matter how the corpus is segmented.
		acc := sc.heap(0, p.NearestPerSegment)
		for _, seg := range e.segs {
			if seg.liveEntries() == 0 {
				continue
			}
			// With the Hamming index enabled, probe the segment's substring
			// tables instead of streaming its arena — unless the cost model
			// predicts the probe loses, or verification shows the index's
			// exact radius cannot cover this query segment's threshold
			// (probeSegment falls back).
			if seg.hindex != nil {
				if verified, ok := e.probeSegment(clk, seg, qsk, maxHam, p.NearestPerSegment, opt, sc, acc); ok {
					scanned += verified
					sc.idxSegs++
					continue
				}
			}
			scanned += e.scanSegment(clk, seg, qsk, maxHam, opt, sc, acc)
			sc.scanSegs++
		}
		cands = append(cands, acc.items()...)
	}

	// Dedup the candidate union: one ranking evaluation per distinct
	// object, no matter how many query segments (or index probe buckets)
	// reached it.
	slices.Sort(cands)
	cands = slices.Compact(cands)
	sc.cands = cands
	e.met.scanned.Add(scanned)
	e.met.candidates.Add(len(cands))
	e.met.stageFilter.ObserveSince(stageStart)
	sc.trp.Record(StageFilter, stageStart, time.Since(stageStart)).
		SetAttr("scanned", int64(scanned)).
		SetAttr("candidates", int64(len(cands)))
	return cands, nil
}

// scanSegment streams one storage segment's arena for one query segment,
// pushing survivors into the cross-segment accumulator acc (heap slot 0;
// the probe's temp heap is slot 1). Returns the number of objects scanned.
// Results are identical to a single-arena scan: every push applies the
// global (hamming, entry) pair order.
func (e *Engine) scanSegment(clk *queryClock, seg *segment, qsk sketch.Sketch, maxHam int, opt QueryOptions, sc *queryScratch, acc *segHeap) int {
	if opt.Restrict == nil && seg.deleted == 0 {
		hits, dist := sc.selectBlocks()
		e.scanArenaRows(clk, seg, qsk, maxHam, acc, hits, dist)
		return seg.n
	}
	return e.scanEntryRange(clk, seg, qsk, maxHam, acc, opt)
}

// scanArenaRows is the filter scan's fast path over one segment's arena
// rows: blocks of rows go through the fused select
// kernel under the block-entry bound, then the (few) selected rows replay
// the exact heap logic, so the result is identical to a row-by-row scan
// while misses never leave the kernel. Valid only when every row belongs to
// a live, unrestricted entry.
//ferret:noalloc
func (e *Engine) scanArenaRows(clk *queryClock, seg *segment, qsk sketch.Sketch, maxHam int, heap *segHeap, hits, dist []int32) {
	a := seg.arena
	rows := a.rows()
	for base := 0; base < rows; base += batchRows {
		if clk.stop() {
			return
		}
		nb := rows - base
		if nb > batchRows {
			nb = batchRows
		}
		bound := int32(maxHam)
		if w := heap.worst(); w < int(bound) {
			bound = int32(w)
		}
		// The kernel prefilters with the block-entry bound, ties included —
		// a row at the worst kept distance can still enter by winning the
		// (hamming, entry) tie-break in push. The bound only tightens
		// mid-block, so the selected rows are a superset of the acceptable
		// ones and the replay below decides exactly as a row-by-row scan
		// would.
		n := sketch.HammingSelect(qsk, a.words, base*a.wps, nb, bound, hits, dist)
		for k := 0; k < n; k++ {
			if h := dist[k]; h <= bound {
				heap.push(seg.loEntry+int(a.entry[base+int(hits[k])]), int(h))
				if w := heap.worst(); w < int(bound) {
					bound = int32(w)
				}
			}
		}
	}
}

// scanEntryRange is the tombstone/Restrict-aware path over one segment's
// entries, reading sketch rows from its arena. Returns the number of
// objects scanned.
//ferret:noalloc
func (e *Engine) scanEntryRange(clk *queryClock, seg *segment, qsk sketch.Sketch, maxHam int, heap *segHeap, opt QueryOptions) int {
	a := seg.arena
	scanned := 0
	for li := 0; li < seg.n; li++ {
		if li%scanCheckStride == 0 && clk.stop() {
			break
		}
		g := seg.loEntry + li
		ent := &e.entries[g]
		if ent.dead {
			continue
		}
		if opt.Restrict != nil && !opt.Restrict[ent.id] {
			continue
		}
		scanned++
		rlo, rhi := a.rowsOf(li)
		bound := maxHam
		if w := heap.worst(); w < bound {
			bound = w
		}
		for row := rlo; row < rhi; row++ {
			h := sketch.HammingAt(qsk, a.words, row*a.wps)
			if h <= bound {
				heap.push(g, h)
				if w := heap.worst(); w < bound {
					bound = w
				}
			}
		}
	}
	return scanned
}

// filterExact is the filtering unit's exact path: the user-supplied segment
// distance function is computed directly against all feature-vector
// metadata (paper §4.1.1's alternative to the sketch comparison).
func (e *Engine) filterExact(clk *queryClock, q *object.Object, p FilterParams, opt QueryOptions) ([]int, error) {
	if q == nil || e.cfg.SketchOnly {
		return nil, errors.New("core: exact-distance filtering requires stored feature vectors")
	}
	stageStart := time.Now()
	scanned := 0
	getObject := func(i int) (object.Object, bool) {
		if e.cfg.LowMemory {
			return e.meta.GetObject(e.entries[i].id)
		}
		return e.objects[i], true
	}

	// Pick the r highest-weight query segments.
	order := make([]int, len(q.Segments))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return q.Segments[order[a]].Weight > q.Segments[order[b]].Weight })
	order = order[:p.QuerySegments]

	candidates := make(map[int]struct{})
	for _, qi := range order {
		qvec := q.Segments[qi].Vec
		// Weight-dependent threshold, as on the sketch path.
		maxDist := math.Inf(1)
		if p.MaxDistance > 0 {
			maxDist = p.MaxDistance * (1 - p.WeightTighten*float64(q.Segments[qi].Weight))
		}
		var kept []scoredIdx
		worst := math.Inf(1)
		for idx := range e.entries {
			if idx%rankCheckStride == 0 && clk.stop() {
				break
			}
			if e.entries[idx].dead {
				continue
			}
			if opt.Restrict != nil && !opt.Restrict[e.entries[idx].id] {
				continue
			}
			o, ok := getObject(idx)
			if !ok {
				continue
			}
			scanned++
			best := math.Inf(1)
			for si := range o.Segments {
				if d := e.segDist(qvec, o.Segments[si].Vec); d < best {
					best = d
				}
			}
			if best > maxDist || (len(kept) >= p.NearestPerSegment && best >= worst) {
				continue
			}
			kept = append(kept, scoredIdx{idx, best})
			if len(kept) > 4*p.NearestPerSegment {
				kept = trimScored(kept, p.NearestPerSegment)
				worst = kept[len(kept)-1].dist
			}
		}
		kept = trimScored(kept, p.NearestPerSegment)
		for _, s := range kept {
			candidates[s.idx] = struct{}{}
		}
	}
	out := make([]int, 0, len(candidates))
	for idx := range candidates {
		out = append(out, idx)
	}
	sort.Ints(out)
	e.met.scanned.Add(scanned)
	e.met.candidates.Add(len(out))
	e.met.stageExact.ObserveSince(stageStart)
	return out, nil
}

// scoredIdx pairs an entry index with an exact segment distance.
type scoredIdx struct {
	idx  int
	dist float64
}

// trimScored keeps the k smallest-distance entries (sorted ascending).
func trimScored(s []scoredIdx, k int) []scoredIdx {
	sort.Slice(s, func(i, j int) bool { return s[i].dist < s[j].dist })
	if len(s) > k {
		s = s[:k]
	}
	return s
}
