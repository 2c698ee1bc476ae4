package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"ferret/internal/attr"
	"ferret/internal/object"
)

// TestConcurrentDegradedMatchesSerial: queries whose budget has already
// expired must degrade (filter completes, rank returns sketch-ordered
// results, Degraded set) identically whether they run one at a time or all
// at once, each on its caller's goroutine over pooled scratch.
func TestConcurrentDegradedMatchesSerial(t *testing.T) {
	const d, nseg = 8, 3
	e := openEngine(t, testConfig(t.TempDir(), d))
	ingestClusters(t, e, 6, 5, d, nseg)
	rng := rand.New(rand.NewSource(5))
	queries := make([]object.Object, 4)
	for i := range queries {
		queries[i] = clusterObject(fmt.Sprintf("q%d", i), i, d, nseg, 0.02, rng)
	}
	opt := QueryOptions{K: 5, Budget: time.Nanosecond}
	want := make([]Answer, len(queries))
	for i, q := range queries {
		ans, err := e.Search(context.Background(), q, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !ans.Degraded {
			t.Fatalf("query %d: not degraded under a 1ns budget", i)
		}
		want[i] = ans
	}

	got := make([]Answer, len(queries))
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	for i := range queries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = e.Search(context.Background(), queries[i], opt)
		}(i)
	}
	wg.Wait()
	for i := range queries {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i].Degraded != want[i].Degraded || len(got[i].Results) != len(want[i].Results) {
			t.Fatalf("query %d: concurrent %+v serial %+v", i, got[i], want[i])
		}
		for r := range want[i].Results {
			if got[i].Results[r] != want[i].Results[r] {
				t.Fatalf("query %d rank %d: concurrent %v serial %v", i, r, got[i].Results[r], want[i].Results[r])
			}
		}
	}
}

// TestConcurrentSearchStress hammers Search, SearchByID, Ingest, and Delete
// from many goroutines on the default config; run under -race this is the
// engine lock-protocol test for concurrent queries next to writes.
// Correctness of the answers is covered elsewhere — here every operation
// just has to finish cleanly.
func TestConcurrentSearchStress(t *testing.T) {
	const d, nseg = 8, 2
	e := openEngine(t, testConfig(t.TempDir(), d))
	ids := ingestClusters(t, e, 4, 4, d, nseg)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	time.AfterFunc(300*time.Millisecond, func() { close(stop) })
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := clusterObject(fmt.Sprintf("g%dq%d", g, i), rng.Intn(4), d, nseg, 0.02, rng)
				switch i % 3 {
				case 0:
					if _, err := e.Search(context.Background(), q, QueryOptions{K: 3}); err != nil {
						t.Error(err)
						return
					}
				case 1:
					// The seed objects are never deleted, so every lookup resolves.
					id := ids[rng.Intn(len(ids))][0]
					if _, err := e.SearchByID(context.Background(), id, QueryOptions{K: 3}); err != nil {
						t.Error(err)
						return
					}
				case 2:
					o := clusterObject(fmt.Sprintf("g%din%d", g, i), rng.Intn(4), d, nseg, 0.02, rng)
					id, err := e.Ingest(o, attr.Attrs{})
					if err != nil {
						t.Error(err)
						return
					}
					if i%6 == 2 {
						if err := e.Delete(id); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCloseFailsClosed: on the default config, and with the bounded ingest
// queue, every query and write entry point must return ErrEngineClosed
// after Close — none may answer from the in-memory arena or reach the
// closed store — and Close must leave no engine goroutines behind.
func TestCloseFailsClosed(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ingest IngestParams
	}{
		{"default", IngestParams{}},
		{"ingest-queue", IngestParams{Depth: 4, Workers: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const d, nseg = 8, 2
			before := runtime.NumGoroutine()
			cfg := testConfig(t.TempDir(), d)
			cfg.Ingest = tc.ingest
			e, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ids := ingestClusters(t, e, 3, 3, d, nseg)
			rng := rand.New(rand.NewSource(3))
			q := clusterObject("q", 0, d, nseg, 0.02, rng)
			if _, err := e.Search(context.Background(), q, QueryOptions{K: 3}); err != nil {
				t.Fatalf("pre-close Search: %v", err)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}

			ctx := context.Background()
			late := clusterObject("late", 1, d, nseg, 0.02, rng)
			checks := []struct {
				name string
				run  func() error
			}{
				{"Search", func() error { _, err := e.Search(ctx, q, QueryOptions{K: 3}); return err }},
				{"SearchByID", func() error { _, err := e.SearchByID(ctx, ids[0][0], QueryOptions{K: 3}); return err }},
				{"Ingest", func() error { _, err := e.Ingest(late, nil); return err }},
				{"IngestQueued", func() error { _, err := e.IngestQueued(ctx, late, nil); return err }},
				{"Delete", func() error { return e.Delete(ids[0][1]) }},
			}
			for _, c := range checks {
				if err := c.run(); !errors.Is(err, ErrEngineClosed) {
					t.Errorf("post-close %s: err %v, want ErrEngineClosed", c.name, err)
				}
			}

			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				runtime.Gosched()
				time.Sleep(5 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				buf := make([]byte, 1<<16)
				t.Fatalf("goroutine leak: %d before, %d after close\n%s", before, n, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}
