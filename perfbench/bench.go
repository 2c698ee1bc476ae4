package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"ferret"
	"ferret/internal/protocol"
)

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's final output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// bench is one run of one workload.
type bench struct {
	spec Spec
	w    Workload
	opt  Options

	work  string // this run's scratch directory
	objs  []ferret.Object
	keys  []string
	spans *spanLog
	// layers is what the traced run's per-layer metrics were computed
	// from, kept for the self-test.
	layers *layerInputs

	mu sync.Mutex
	d  *daemon
}

func (b *bench) setDaemon(d *daemon) {
	b.mu.Lock()
	b.d = d
	b.mu.Unlock()
}

// stopDaemon stops the running ferretd, if any; safe from any goroutine.
func (b *bench) stopDaemon() {
	b.mu.Lock()
	d := b.d
	b.d = nil
	b.mu.Unlock()
	d.stop(15 * time.Second)
}

func (b *bench) abort(err error) {
	logf("aborting: %v", err)
	b.stopDaemon()
	os.Exit(3)
}

// endToEnd names the metrics an untraced run reports (BENCHMARK.json's
// end_to_end list). The read and write latencies swing by a quarter or
// more between runs on a 2-vCPU shared host when other tenants take its
// CPU, too much to gate on, so the traced run reports them with the
// per-layer split (loadLatency) and every run logs them in its summary
// line.
var (
	endToEnd    = []string{"setup_s", "qps", "recall_at_10", "rss_mb"}
	loadLatency = []string{"p50_ms", "p99_ms", "write_p50_ms", "write_p90_ms"}
)

// Run sizing.
const (
	setupReps      = 2 // set-ups per untraced run; setup_s is their median
	writeFileCount = 64
	tinyDivisor    = 20 // self-test corpus scale
)

func (b *bench) run() (*Result, error) {
	w, opt := b.w, b.opt
	n, recallKeys, reps := w.Corpus.Objects, w.RecallKeys, setupReps
	if opt.Trace {
		reps = 1 // the traced run reports no setup_s
	}
	if opt.Tiny {
		n, recallKeys = n/tinyDivisor, 8
	}
	b.work = filepath.Join(opt.State, "work")
	if err := os.RemoveAll(b.work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.work)
	defer b.stopDaemon()
	b.spans = newSpanLog()

	var err error
	if b.objs, err = cachedCorpus(w.Corpus, n, filepath.Join(opt.State, "corpus")); err != nil {
		return nil, err
	}
	b.keys = make([]string, len(b.objs))
	for i := range b.objs {
		b.keys[i] = b.objs[i].Key
	}
	var files []string
	if w.WriteEvery > 0 {
		files, err = writeFiles(w.Corpus.Kind, filepath.Join(b.work, "files"), writeFileCount, opt.Seed)
		if err != nil {
			return nil, err
		}
	}

	// Set-up, repeated; the last daemon stays up for the load phases.
	var setups []float64
	for rep := 0; rep < reps; rep++ {
		if rep > 0 {
			b.stopDaemon()
			if err := os.RemoveAll(filepath.Join(b.work, fmt.Sprintf("db%d", rep-1))); err != nil {
				return nil, err
			}
		}
		// Each set-up starts from a collected heap, so garbage left by the
		// corpus decode or an earlier set-up is not charged to it.
		runtime.GC()
		t0 := time.Now()
		dur, err := b.setup(rep)
		if err != nil {
			return nil, err
		}
		b.spans.add(0, "setup", t0, t0.Add(dur), "", true)
		setups = append(setups, dur.Seconds())
		logf("set-up %d: %.3fs", rep, dur.Seconds())
	}
	b.mu.Lock()
	d := b.d
	b.mu.Unlock()
	// From here on the generator needs only the keys. Dropping the corpus
	// and pausing the collector keeps this process's GC from competing
	// with ferretd for the two cores during the measured phases; the
	// memory limit still bounds the heap.
	b.objs = nil
	runtime.GC()
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(512 << 20)

	// No more connections than CPUs: the generator shares the host with
	// ferretd, and each connection is served by its own goroutine there.
	conns := make([]*protocol.Client, min(b.spec.Connections, runtime.NumCPU()))
	for i := range conns {
		if conns[i], err = d.dial(); err != nil {
			return nil, err
		}
		defer conns[i].Close()
	}
	ex := &executor{conns: conns, k: b.spec.K}
	rng := rand.New(rand.NewSource(opt.Seed))
	// The key permutation is fixed with the corpus: uniform keys walk it in
	// order, Zipf popularity ranks keys by it. Every run then reads the
	// same keys (uniform) or has the same hot set (Zipf), and the run seed
	// varies arrivals, Zipf draws, write positions and written files.
	// Query cost varies from key to key, so a per-run sample of keys would
	// move qps between seeds by itself.
	permRng := rand.New(rand.NewSource(w.Corpus.Seed))
	keyRng := rand.New(rand.NewSource(rng.Int63()))
	gen := &opGen{
		keys:       newKeyStream(b.keys, w.ZipfS, permRng, keyRng),
		writes:     newWriteSeq(files),
		writeEvery: w.WriteEvery,
		rng:        rand.New(rand.NewSource(rng.Int63())),
	}
	closedDur := time.Duration(opt.Seconds * w.ClosedShare * float64(time.Second))
	openDur := opt.Seconds * (1 - w.ClosedShare)

	var phases []*phaseResult
	record := func(p *phaseResult) *phaseResult {
		phases = append(phases, p)
		b.spans.addPhase(p)
		if len(p.errs) > 0 {
			logf("%s: %d errors, first: %v", p.name, len(p.errs), p.errs)
		}
		return p
	}

	// The traced run replays the closed loop's reads traced, so the tracing
	// overhead compares the same keys: two samples of a few hundred keys
	// differ in cost by a tenth.
	var closedOps []*op
	closed := record(ex.closedLoop("closed", closedDur, func() *op {
		o := gen.next()
		closedOps = append(closedOps, o)
		return o
	}))
	v1, err := d.scrape(conns[0])
	if err != nil {
		return nil, err
	}
	var closedTraced *phaseResult
	if opt.Trace {
		ex.trace = true
		replay := 0
		closedTraced = record(ex.closedLoop("closed-traced", closedDur, func() *op {
			if replay == len(closedOps) {
				return gen.next()
			}
			o := closedOps[replay]
			replay++
			if o.kind != opRead {
				return gen.writes.next()
			}
			return &op{kind: opRead, key: o.key}
		}))
		if v1, err = d.scrape(conns[0]); err != nil {
			return nil, err
		}
	}

	ops := make([]*op, int(math.Round(w.OpenRateQPS*openDur)))
	for i := range ops {
		ops[i] = gen.next()
	}
	poissonSchedule(ops, w.OpenRateQPS, rand.New(rand.NewSource(rng.Int63())))
	open := record(ex.openLoop("open", ops))
	v2, err := d.scrape(conns[0])
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	var retained retainedTraces
	if opt.Trace {
		if err := d.getJSON("/debug/traces", &retained); err != nil {
			return nil, err
		}
	}
	ex.trace = false

	// Remove the remaining benchmark-added objects so the recall check
	// sees exactly the original corpus.
	record(ex.sequential("cleanup", gen.writes.drain()))

	cache, err := newExactCache(filepath.Join(opt.State, "exact"), fmt.Sprintf("%s-%d-%d-k%d", w.Corpus.Kind, n, w.Corpus.Seed, b.spec.K), opt.Ferretd)
	if err != nil {
		return nil, err
	}
	pick := rand.New(rand.NewSource(w.Corpus.Seed)).Perm(len(b.keys))[:recallKeys]
	rkeys := make([]string, len(pick))
	for i, j := range pick {
		rkeys[i] = b.keys[j]
	}
	t0 := time.Now()
	recall, rAttempted, rFailed, err := recallCheck(conns, rkeys, b.spec.K, cache)
	if err != nil {
		return nil, err
	}
	b.spans.add(0, "recall", t0, time.Now(), "", rFailed == 0)

	res := &Result{Attempted: rAttempted, Failed: rFailed, Metrics: map[string]Metric{}}
	for _, p := range phases {
		for _, k := range []opKind{opRead, opAdd, opDelete} {
			a, f := p.count(k)
			res.Attempted += a
			res.Failed += f
		}
	}
	res.Correct = res.Failed == 0 && recall >= w.RecallFloor
	if recall < w.RecallFloor {
		logf("recall_at_10 %.4f below the workload's floor %.2f", recall, w.RecallFloor)
	}

	readLat := open.latencies(opRead, latOf)
	writeLat := append(open.latencies(opAdd, latOf), open.latencies(opDelete, latOf)...)
	sort.Float64s(writeLat)
	logf("closed loop: %.1f reads/s; open loop: %d reads, %d writes over %.2fs, lag p99 %.3fms; recall %.4f",
		readsPerSecond(closed), len(readLat), len(writeLat), open.elapsed.Seconds(),
		quantile(open.latencies(opRead, lagOf), 0.99), recall)
	if !opt.Tiny {
		if got := beyond(len(readLat), 0.99); got < 10 {
			return nil, fmt.Errorf("open-loop phase has %d reads, %d beyond p99 (need 10)", len(readLat), got)
		}
		if got := beyond(len(writeLat), 0.90); w.WriteEvery > 0 && got < 10 {
			return nil, fmt.Errorf("open-loop phase has %d writes, %d beyond p90 (need 10)", len(writeLat), got)
		}
	}
	load := map[string]Metric{
		"setup_s":      {median(setups), "s"},
		"qps":          {readsPerSecond(closed), "1/s"},
		"p50_ms":       {quantile(readLat, 0.50), "ms"},
		"p99_ms":       {quantile(readLat, 0.99), "ms"},
		"write_p50_ms": {quantile(writeLat, 0.50), "ms"},
		"write_p90_ms": {quantile(writeLat, 0.90), "ms"},
		"recall_at_10": {recall, "fraction"},
		"rss_mb":       {rss, "MiB"},
	}
	if summary, err := json.Marshal(load); err == nil {
		logf("summary %s", summary)
	}
	if !opt.Trace {
		for _, name := range endToEnd {
			res.Metrics[name] = load[name]
		}
	} else {
		l := layerInputs{
			closed: closed, closedTraced: closedTraced, open: open,
			v1: v1, v2: v2, started: d.started,
			retained: retained, recallAttempted: rAttempted, recallFailed: rFailed,
		}
		b.layers = &l
		res.Metrics = perLayer(l)
		for _, name := range loadLatency {
			res.Metrics[name] = load[name]
		}
		if err := b.spans.write(filepath.Join(opt.State, "spans",
			fmt.Sprintf("%s-seed%d.jsonl", w.Name, opt.Seed))); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func latOf(s *sample) time.Duration { return s.lat }
func lagOf(s *sample) time.Duration { return s.lag }

// medianWindows is the number of equal windows the closed-loop phase is
// cut into for qps, which reports the median window: a stall of the shared
// host lasting a second then moves a window or two rather than the figure.
const medianWindows = 8

// readsPerSecond is a closed-loop phase's read throughput in successful
// reads per second: the median over medianWindows windows of the phase's
// nominal duration. Each read counts in every window its round trip
// overlaps, in proportion to the overlap, so a window's count is not
// rounded to whole reads.
func readsPerSecond(p *phaseResult) float64 {
	win := p.nominal / medianWindows
	if win <= 0 {
		return 0
	}
	counts := make([]float64, medianWindows)
	for i := range p.samples {
		s := &p.samples[i]
		if s.kind != opRead || !s.ok || s.rtt <= 0 {
			continue
		}
		for w := range counts {
			lo := p.start.Add(time.Duration(w) * win)
			hi := lo.Add(win)
			if overlap := minTime(s.end, hi).Sub(maxTime(s.start, lo)); overlap > 0 {
				counts[w] += float64(overlap) / float64(s.rtt)
			}
		}
	}
	return median(counts) / win.Seconds()
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// sequential runs ops one after another on the first connection.
func (e *executor) sequential(name string, ops []*op) *phaseResult {
	start := time.Now()
	out := make([]sample, len(ops))
	for i, o := range ops {
		out[i] = e.do(e.conns[0], o)
		out[i].lat = out[i].rtt
	}
	p := &phaseResult{name: name, samples: out, start: start, elapsed: time.Since(start)}
	collectErrs(p)
	return p
}
