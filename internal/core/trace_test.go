package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ferret/internal/telemetry/trace"
)

// traceTestConfig disables head sampling and the duration-based slow trigger,
// so only forced retention and MarkSlow can publish traces — the properties
// under test, isolated from timing.
func traceTestConfig(dir string, d int) Config {
	cfg := testConfig(dir, d)
	cfg.Trace = trace.Params{SampleEvery: -1, SlowThreshold: -1}
	return cfg
}

// findTrace resolves one answer's retained trace through the engine tracer.
func findTrace(t *testing.T, e *Engine, ti *TraceInfo) *trace.Trace {
	t.Helper()
	if ti == nil {
		t.Fatal("answer carries no trace info")
	}
	id, err := trace.ParseTraceID(ti.ID)
	if err != nil {
		t.Fatal(err)
	}
	tr := e.tracer.Find(id)
	if tr == nil {
		t.Fatalf("trace %s not retained", ti.ID)
	}
	return tr
}

// TestDegradedQueryInSlowLog: a budget-degraded query must always appear in
// the slow-query log — with sampling and the duration trigger both disabled,
// only the degraded marking can have put it there — carrying the sketch,
// filter, and rank spans that explain where its time went.
func TestDegradedQueryInSlowLog(t *testing.T) {
	const d, nseg = 8, 3
	e := openEngine(t, traceTestConfig(t.TempDir(), d))
	ingestClusters(t, e, 6, 5, d, nseg)

	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 4; i++ {
		q := clusterObject(fmt.Sprintf("q%d", i), i, d, nseg, 0.02, rng)
		ans, err := e.Search(context.Background(), q,
			QueryOptions{K: 5, Budget: time.Nanosecond, ForceTrace: true})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if !ans.Degraded {
			t.Fatalf("query %d: not degraded under 1ns budget", i)
		}
		ti := ans.Trace
		if ti == nil {
			t.Fatalf("query %d: no trace info", i)
		}
		var tr *trace.Trace
		for _, s := range e.tracer.Slow() {
			if s.ID.String() == ti.ID {
				tr = s
				break
			}
		}
		if tr == nil {
			t.Fatalf("degraded query %d (trace %s) missing from the slow-query log", i, ti.ID)
		}
		if !tr.Slow {
			t.Fatalf("query %d: retained trace not marked slow: %s", i, tr.Compact())
		}
		for _, name := range []string{StageSketch, StageFilter, StageRank} {
			if _, ok := tr.Span(name); !ok {
				t.Fatalf("query %d: slow trace lacks %s span: %s", i, name, tr.Compact())
			}
		}
		degraded := false
		for _, at := range tr.Spans[0].Attrs {
			if at.Key == "degraded" && at.Val == 1 {
				degraded = true
			}
		}
		if !degraded {
			t.Fatalf("query %d: root span lacks degraded attr: %s", i, tr.Compact())
		}
	}
}

// TestSerialSearchTraced: the query pipeline must produce a complete forced
// trace — sketch, filter, and rank spans plus the aggregated breakdown on
// the answer.
func TestSerialSearchTraced(t *testing.T) {
	const d, nseg = 8, 3
	e := openEngine(t, traceTestConfig(t.TempDir(), d))
	ingestClusters(t, e, 5, 5, d, nseg)

	rng := rand.New(rand.NewSource(41))
	q := clusterObject("q", 2, d, nseg, 0.02, rng)
	ans, err := e.Search(context.Background(), q, QueryOptions{K: 3, ForceTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := findTrace(t, e, ans.Trace)
	for _, name := range []string{StageSketch, StageFilter, StageRank} {
		if _, ok := tr.Span(name); !ok {
			t.Fatalf("no %s span in %s", name, tr.Compact())
		}
	}
	if len(e.tracer.Slow()) != 0 {
		t.Fatal("healthy query leaked into the slow-query log")
	}
}

// TestCallerSuppliedTraceBuffer: a caller-armed Active passed through
// QueryOptions.Trace receives the pipeline spans, and the engine must not
// finish it — the caller owns retention (the server records its write span
// after the engine returns).
func TestCallerSuppliedTraceBuffer(t *testing.T) {
	const d, nseg = 8, 2
	e := openEngine(t, traceTestConfig(t.TempDir(), d))
	ingestClusters(t, e, 4, 4, d, nseg)

	rng := rand.New(rand.NewSource(51))
	q := clusterObject("q", 1, d, nseg, 0.02, rng)
	var act trace.Active
	if !e.tracer.BeginWith(&act, "caller", 0, true) {
		t.Fatal("tracer disabled")
	}
	if _, err := e.Search(context.Background(), q, QueryOptions{K: 3, Trace: &act}); err != nil {
		t.Fatal(err)
	}
	if !act.Armed() {
		t.Fatal("engine finished the caller's trace")
	}
	act.Record("write", time.Now(), time.Millisecond)
	tr := act.Finish()
	if tr == nil {
		t.Fatal("forced caller trace not retained")
	}
	for _, name := range []string{StageSketch, StageFilter, StageRank, "write"} {
		if _, ok := tr.Span(name); !ok {
			t.Fatalf("no %s span in %s", name, tr.Compact())
		}
	}
}
