package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ferret/internal/protocol"
)

type opKind uint8

const (
	opRead opKind = iota
	opAdd
	opDelete
)

func (k opKind) String() string {
	switch k {
	case opAdd:
		return "addfile"
	case opDelete:
		return "delete"
	}
	return "query"
}

// op is one generated request. A write may depend on an earlier write of
// the same file (DELETE after its ADDFILE, a re-ADDFILE after the DELETE):
// it waits for that op's done channel, and the wait is charged to it.
type op struct {
	kind  opKind
	key   string // query key, or the file path (= object key) of a write
	due   time.Duration
	after chan struct{}
	done  chan struct{}
}

// keyStream draws query keys: uniform without repeats (a permutation
// walked in order) or Zipf(s) popularity over a permutation. The
// permutation comes from permRng and the Zipf draws from drawRng.
type keyStream struct {
	keys []string
	perm []int
	pos  int
	cdf  []float64 // non-nil for Zipf
	rng  *rand.Rand
}

func newKeyStream(keys []string, zipfS float64, permRng, drawRng *rand.Rand) *keyStream {
	ks := &keyStream{keys: keys, perm: permRng.Perm(len(keys)), rng: drawRng}
	if zipfS > 0 {
		ks.cdf = make([]float64, len(keys))
		sum := 0.0
		for i := range ks.cdf {
			sum += 1 / math.Pow(float64(i+1), zipfS)
			ks.cdf[i] = sum
		}
		for i := range ks.cdf {
			ks.cdf[i] /= sum
		}
	}
	return ks
}

func (ks *keyStream) next() string {
	if ks.cdf != nil {
		rank := sort.SearchFloat64s(ks.cdf, ks.rng.Float64())
		if rank >= len(ks.perm) {
			rank = len(ks.perm) - 1
		}
		return ks.keys[ks.perm[rank]]
	}
	if ks.pos == len(ks.perm) {
		// Only a run far longer than the workload's sizing wraps around.
		ks.pos = 0
	}
	k := ks.keys[ks.perm[ks.pos]]
	ks.pos++
	return k
}

// writeSeq sequences benchmark writes: ADDFILE of the next free generated
// file until more than window added objects are live, then alternately
// DELETE of the oldest added object and ADDFILE of the next free file, so
// the corpus size stays steady. Deleted files return to the free list.
type writeSeq struct {
	free   []string
	live   []*op // ADDFILE ops of live added objects, oldest first
	lastOp map[string]*op
	window int
}

func newWriteSeq(files []string) *writeSeq {
	return &writeSeq{free: append([]string(nil), files...), lastOp: map[string]*op{}, window: 4}
}

func (ws *writeSeq) next() *op {
	if len(ws.live) > ws.window || len(ws.free) == 0 {
		return ws.deleteOldest()
	}
	o := &op{kind: opAdd, key: ws.free[0]}
	ws.free = ws.free[1:]
	ws.live = append(ws.live, o)
	return ws.chain(o)
}

func (ws *writeSeq) deleteOldest() *op {
	add := ws.live[0]
	ws.live = ws.live[1:]
	ws.free = append(ws.free, add.key)
	return ws.chain(&op{kind: opDelete, key: add.key})
}

// chain makes o wait for the previous write of the same file.
func (ws *writeSeq) chain(o *op) *op {
	if prev := ws.lastOp[o.key]; prev != nil {
		o.after = prev.done
	}
	o.done = make(chan struct{})
	ws.lastOp[o.key] = o
	return o
}

// drain returns DELETE ops for every live added object.
func (ws *writeSeq) drain() []*op {
	var out []*op
	for len(ws.live) > 0 {
		out = append(out, ws.deleteOldest())
	}
	return out
}

// opGen produces a workload's operation sequence: reads from the key
// stream, with exactly one write at a seeded position in every block of
// writeEvery operations when writeEvery > 0.
type opGen struct {
	keys       *keyStream
	writes     *writeSeq
	writeEvery int
	rng        *rand.Rand
	inBlock    int
	writeAt    int
}

func (g *opGen) next() *op {
	if g.writeEvery > 0 {
		if g.inBlock == 0 {
			g.writeAt = g.rng.Intn(g.writeEvery)
		}
		isWrite := g.inBlock == g.writeAt
		g.inBlock = (g.inBlock + 1) % g.writeEvery
		if isWrite {
			return g.writes.next()
		}
	}
	return &op{kind: opRead, key: g.keys.next()}
}

// sample is one completed operation.
type sample struct {
	kind    opKind
	lat     time.Duration // from due time (open loop) or send (closed loop)
	rtt     time.Duration // send to reply
	lag     time.Duration // send minus due (open loop)
	start   time.Time     // send
	end     time.Time
	ok      bool
	err     string
	stages  []protocol.StageTiming
	traceID string
}

// phaseResult is one load phase's samples and wall time.
type phaseResult struct {
	name    string
	samples []sample
	start   time.Time
	nominal time.Duration // planned length of a closed-loop phase
	elapsed time.Duration
	errs    []string
}

func (p *phaseResult) count(kind opKind) (attempted, failed int) {
	for i := range p.samples {
		if p.samples[i].kind == kind {
			attempted++
			if !p.samples[i].ok {
				failed++
			}
		}
	}
	return
}

// latencies returns the ok samples' latencies of one kind in milliseconds,
// sorted ascending.
func (p *phaseResult) latencies(kind opKind, f func(*sample) time.Duration) []float64 {
	var out []float64
	for i := range p.samples {
		s := &p.samples[i]
		if s.kind == kind && s.ok {
			out = append(out, ms(f(s)))
		}
	}
	sort.Float64s(out)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank q-quantile of sorted xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// beyond is the number of samples strictly above the nearest-rank
// q-quantile of n samples.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// executor issues operations on the connections and checks reads.
type executor struct {
	conns []*protocol.Client
	k     int
	trace bool
}

func (e *executor) do(c *protocol.Client, o *op) sample {
	if o.after != nil {
		<-o.after
	}
	s := sample{kind: o.kind, start: time.Now()}
	var err error
	switch o.kind {
	case opRead:
		var res []protocol.Result
		var meta protocol.ResponseMeta
		res, meta, err = c.QueryMeta(o.key, protocol.QueryParams{K: e.k, Trace: e.trace})
		if err == nil {
			err = checkRead(o.key, res, e.k)
		}
		if err == nil && meta.Degraded {
			err = fmt.Errorf("query %s answered degraded", o.key)
		}
		s.stages, s.traceID = meta.Stages, meta.TraceID
	case opAdd:
		err = c.AddFile(o.key, nil)
	case opDelete:
		err = c.Delete(o.key)
	}
	s.end = time.Now()
	s.rtt = s.end.Sub(s.start)
	s.ok = err == nil
	if err != nil {
		s.err = err.Error()
	}
	if o.done != nil {
		close(o.done)
	}
	return s
}

func collectErrs(p *phaseResult) {
	for i := range p.samples {
		s := &p.samples[i]
		if !s.ok && len(p.errs) < 5 {
			p.errs = append(p.errs, s.kind.String()+": "+s.err)
		}
	}
}

// closedLoop runs every connection back to back for d: each sends its next
// operation as soon as the previous one is answered.
func (e *executor) closedLoop(name string, d time.Duration, next func() *op) *phaseResult {
	var (
		mu  sync.Mutex
		out []sample
		wg  sync.WaitGroup
	)
	start := time.Now()
	stop := start.Add(d)
	for _, c := range e.conns {
		wg.Add(1)
		go func(c *protocol.Client) {
			defer wg.Done()
			var local []sample
			for time.Now().Before(stop) {
				mu.Lock()
				o := next()
				mu.Unlock()
				s := e.do(c, o)
				s.lat = s.rtt
				local = append(local, s)
			}
			mu.Lock()
			out = append(out, local...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	p := &phaseResult{name: name, samples: out, start: start, nominal: d, elapsed: time.Since(start)}
	collectErrs(p)
	return p
}

// openLoop issues ops at their due times (offsets from the phase start).
// One goroutine per connection takes the next op in due order, sleeps
// until it is due when early, and otherwise sends at once: an op due while
// every connection is busy waits in the generator, and its latency runs
// from its due time, so the wait is charged to it.
func (e *executor) openLoop(name string, ops []*op) *phaseResult {
	var (
		nextIdx atomic.Int64
		wg      sync.WaitGroup
	)
	out := make([]sample, len(ops))
	start := time.Now()
	for _, c := range e.conns {
		wg.Add(1)
		go func(c *protocol.Client) {
			defer wg.Done()
			for {
				i := int(nextIdx.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				o := ops[i]
				due := start.Add(o.due)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				s := e.do(c, o)
				s.lag = s.start.Sub(due)
				s.lat = s.end.Sub(due)
				out[i] = s
			}
		}(c)
	}
	wg.Wait()
	p := &phaseResult{name: name, samples: out, start: start, elapsed: time.Since(start)}
	collectErrs(p)
	return p
}

// poissonSchedule assigns n ops seeded exponential inter-arrival gaps at
// rate per second.
func poissonSchedule(ops []*op, rate float64, rng *rand.Rand) {
	t := 0.0
	for _, o := range ops {
		t += rng.ExpFloat64() / rate
		o.due = time.Duration(t * float64(time.Second))
	}
}
