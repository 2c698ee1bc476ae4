package core

import (
	"slices"
	"time"

	"ferret/internal/hindex"
	"ferret/internal/sketch"
)

// HIndexParams configures the optional multi-table Hamming index over the
// sketch arena (see internal/hindex and DESIGN.md §12).
type HIndexParams struct {
	// Enable builds and maintains the index; queries probe it whenever the
	// cost model predicts a win, falling back to the arena scan otherwise.
	Enable bool
	// Tables is the substring table count m: probes answer Hamming radius
	// m−1 exactly. 0 means hindex.DefaultTables; out-of-range values are
	// clamped to the sketch width (see hindex.ClampTables).
	Tables int
	// MaxCandidateFrac is the cost model's ceiling: a probe whose estimated
	// candidate stream exceeds this fraction of the indexed rows falls back
	// to the scan (random-access verification loses to the streaming kernel
	// well before candidates approach the corpus). 0 means 0.25.
	MaxCandidateFrac float64
}

func (p HIndexParams) withDefaults() HIndexParams {
	if p.Tables <= 0 {
		p.Tables = hindex.DefaultTables
	}
	if p.MaxCandidateFrac <= 0 {
		p.MaxCandidateFrac = 0.25
	}
	return p
}

// probeSegment serves one (query segment × storage segment) unit from the
// storage segment's multi-table Hamming index instead of its arena scan. It
// returns the number of rows verified (the probe's contribution to the
// objects-scanned metric) and whether the probe succeeded; on success the
// segment's k nearest were merged into the cross-segment accumulator acc,
// on ok=false the caller must fall back to scanSegment and acc is
// untouched.
//
// Correctness: the index's candidate stream is a superset of every segment
// row within Hamming radius rEff = min(maxHam, Radius()) of the query
// (pigeonhole). Candidates are verified with the same HammingAt kernel the
// scan uses and pushed — into a private temp heap, so a failed probe never
// pollutes the accumulator — under the same (hamming, entry) pair order,
// with the acceptance bound clamped to rEff. The merge is bit-identical to
// scanning the segment into acc whenever the probe reports ok:
//
//   - rEff == maxHam: the stream covers the whole acceptance radius, so the
//     replay sees every segment row the scan would have accepted.
//   - rEff < maxHam: coverage is only guaranteed up to rEff, so the probe
//     succeeds only if the temp heap fills within it — then the segment's k
//     nearest all sit at distance ≤ worst ≤ rEff and were all in the
//     stream. Any segment row beyond rEff is dominated by those k rows, so
//     it could not have entered acc either.
//
// Cost model (ok=false before any verification): the estimated candidate
// stream length (exact, from bucket populations) must stay below
// MaxCandidateFrac of the indexed rows — beyond that the probe's random
// row reads lose to the scan's streaming kernels — and, when rEff < maxHam,
// must be at least k, or the heap provably cannot fill.
//ferret:noalloc
func (e *Engine) probeSegment(clk *queryClock, seg *segment, qsk sketch.Sketch, maxHam, k int, opt QueryOptions, sc *queryScratch, acc *segHeap) (int, bool) {
	ix := seg.hindex
	rEff := ix.Radius()
	if maxHam < rEff {
		rEff = maxHam
	}
	est := ix.EstimateCandidates(qsk)
	rows := ix.Rows()
	if float64(est) > e.cfg.HIndex.MaxCandidateFrac*float64(rows) || (rEff < maxHam && est < k) {
		e.met.hixFallback.Inc()
		return 0, false
	}

	probeStart := time.Now()
	seen := resizeU64(&sc.seen, (seg.arena.rows()+63)/64)
	buf := ix.AppendCandidates(sc.probe[:0], qsk, seen)
	for _, row := range buf {
		seen[row>>6] &^= 1 << (uint(row) & 63)
	}
	// Sorted candidates verify in arena order — sparse but monotone row
	// reads instead of bucket-chain order.
	slices.Sort(buf)
	sc.probe = buf
	sc.trp.Record(StageHProbe, probeStart, time.Since(probeStart)).
		SetAttr("estimated", int64(est)).
		SetAttr("candidates", int64(len(buf)))

	verifyStart := time.Now()
	a := seg.arena
	tmp := sc.heap(1, k)
	bound := rEff
	for i, row := range buf {
		if i%scanCheckStride == 0 && clk.stop() {
			break
		}
		// Deleted rows never appear (Delete removes them from the index);
		// only a caller-supplied Restrict set can exclude a candidate.
		if opt.Restrict != nil && !opt.Restrict[e.entries[seg.loEntry+int(a.entry[row])].id] {
			continue
		}
		h := sketch.HammingAt(qsk, a.words, int(row)*a.wps)
		if h <= bound {
			tmp.push(seg.loEntry+int(a.entry[row]), h)
			if w := tmp.worst(); w < bound {
				bound = w
			}
		}
	}
	e.met.hixProbes.Inc()
	e.met.hixCandidates.Add(len(buf))
	e.met.hixBaseline.Add(rows)
	ok := rEff >= maxHam || tmp.full()
	sc.trp.Record(StageHVerify, verifyStart, time.Since(verifyStart)).
		SetAttr("verified", int64(len(buf))).
		SetAttr("kept", int64(len(tmp.items())))
	if !ok {
		e.met.hixFallback.Inc()
		return 0, false
	}
	for i := range tmp.entry {
		acc.push(tmp.entry[i], tmp.ham[i])
	}
	return len(buf), true
}

// resizeU64 sizes a pooled dedup bitmap. The all-zero invariant is the
// caller's: every bit set during a descent is cleared afterwards, and a
// grow hands out a freshly zeroed slice.
func resizeU64(s *[]uint64, n int) []uint64 {
	if cap(*s) < n {
		*s = make([]uint64, n)
	}
	*s = (*s)[:n]
	return *s
}

// filterMode renders the scratch's per-segment accounting as the answer's
// mode flag: which machinery served the filtering unit.
func (sc *queryScratch) filterMode() string {
	switch {
	case sc.idxSegs > 0 && sc.scanSegs > 0:
		return FilterModeMixed
	case sc.idxSegs > 0:
		return FilterModeIndex
	case sc.scanSegs > 0:
		return FilterModeScan
	default:
		return ""
	}
}

// Answer.FilterMode values.
const (
	FilterModeIndex = "index" // every filter segment served by the Hamming index
	FilterModeScan  = "scan"  // every filter segment served by an arena scan
	FilterModeMixed = "mixed" // some probes fell back to the scan
)
