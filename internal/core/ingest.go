package core

import (
	"context"
	"errors"
	"sync"

	"ferret/internal/attr"
	"ferret/internal/object"
)

// The bounded ingest queue: overload robustness for the write path. The
// engine's Ingest is internally serialized (ingestMu), so unbounded
// concurrent producers would pile goroutines onto one mutex; the queue
// bounds that pile and gives producers an explicit overload signal instead.
// Two policies:
//
//   - backpressure (default): a full queue blocks the producer until a
//     drain worker frees a slot — sustained-rate producers slow down to the
//     engine's commit rate.
//   - shed (IngestParams.Shed): a full queue rejects immediately with
//     ErrOverloaded — latency-sensitive producers keep their deadline and
//     retry later. Shed rejections count into ferret_ingest_rejected_total.
//
// Drain workers run the full Ingest pipeline, so sketch construction for
// queued objects overlaps across Workers goroutines even though the final
// commit is serialized.

// ErrOverloaded reports that the bounded ingest queue is full and the shed
// policy is active. The server maps it to a BUSY wire error so clients back
// off instead of timing out.
var ErrOverloaded = errors.New("core: ingest queue full")

// IngestParams configures the bounded ingest queue. The zero value disables
// the queue: IngestQueued then commits synchronously, exactly like Ingest.
type IngestParams struct {
	// Depth is the queue capacity. 0 means 256 once the queue is enabled
	// (see Workers).
	Depth int
	// Shed makes a full queue reject with ErrOverloaded instead of blocking
	// the producer.
	Shed bool
	// Workers is the number of drain goroutines. 0 means 1. Setting Depth
	// or Workers enables the queue.
	Workers int
}

func (p IngestParams) withDefaults() IngestParams {
	if p.Depth <= 0 {
		p.Depth = 256
	}
	if p.Workers <= 0 {
		p.Workers = 1
	}
	return p
}

type ingestRes struct {
	id  object.ID
	err error
}

type ingestReq struct {
	o     object.Object
	attrs attr.Attrs
	done  chan ingestRes // buffered(1): the responder never blocks
}

type ingestQueue struct {
	e      *Engine
	p      IngestParams
	ch     chan ingestReq
	closed chan struct{}
	wg     sync.WaitGroup
	once   sync.Once
}

func newIngestQueue(e *Engine, p IngestParams) *ingestQueue {
	q := &ingestQueue{e: e, p: p, ch: make(chan ingestReq, p.Depth), closed: make(chan struct{})}
	q.wg.Add(p.Workers)
	for i := 0; i < p.Workers; i++ {
		go q.worker()
	}
	return q
}

func (q *ingestQueue) worker() {
	defer q.wg.Done()
	for {
		select {
		case req := <-q.ch:
			id, err := q.e.Ingest(req.o, req.attrs)
			q.e.met.queueDepth.Set(int64(len(q.ch)))
			req.done <- ingestRes{id: id, err: err}
		case <-q.closed:
			return
		}
	}
}

func (q *ingestQueue) enqueue(ctx context.Context, req ingestReq) error {
	if q.p.Shed {
		select {
		case <-q.closed:
			return ErrEngineClosed
		case q.ch <- req:
			q.e.met.queueDepth.Set(int64(len(q.ch)))
			return nil
		default:
			q.e.met.ingestRejected.Inc()
			return ErrOverloaded
		}
	}
	// A cancelled producer never enqueues, even when a slot is free — the
	// blocking select below picks pseudo-randomly among ready cases.
	select {
	case <-q.closed:
		return ErrEngineClosed
	case <-ctx.Done():
		return ctx.Err()
	default:
	}
	select {
	case <-q.closed:
		return ErrEngineClosed
	case <-ctx.Done():
		return ctx.Err()
	case q.ch <- req:
		q.e.met.queueDepth.Set(int64(len(q.ch)))
		return nil
	}
}

// close stops the drain workers and fails whatever is still queued. Like
// the rest of the engine, callers must not race IngestQueued with Close.
func (q *ingestQueue) close() {
	q.once.Do(func() {
		close(q.closed)
		q.wg.Wait()
		for {
			select {
			case req := <-q.ch:
				req.done <- ingestRes{err: ErrEngineClosed}
			default:
				return
			}
		}
	})
}

// IngestQueued routes one object through the bounded ingest queue when one
// is configured (Config.Ingest): the producer blocks while the queue is
// full — or is shed with ErrOverloaded under the shed policy — then waits
// for its object's commit and gets the same result Ingest would return.
// Without a queue it is exactly Ingest. The context covers only the queue
// wait: once the object is accepted, its commit is not cancelable.
func (e *Engine) IngestQueued(ctx context.Context, o object.Object, attrs attr.Attrs) (object.ID, error) {
	if e.queue == nil {
		return e.Ingest(o, attrs)
	}
	req := ingestReq{o: o, attrs: attrs, done: make(chan ingestRes, 1)}
	if err := e.queue.enqueue(ctx, req); err != nil {
		return 0, err
	}
	res := <-req.done
	return res.id, res.err
}

// IngestQueueDepth reports the bounded ingest queue's current backlog (0
// when no queue is configured) — the daemon's overload signal.
func (e *Engine) IngestQueueDepth() int {
	if e.queue == nil {
		return 0
	}
	return len(e.queue.ch)
}
