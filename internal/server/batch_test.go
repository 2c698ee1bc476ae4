package server

import (
	"strings"
	"testing"

	"ferret/internal/core"
	"ferret/internal/protocol"
)

// TestBatchQuery: a BATCHQUERY answer must match the same keys queried one
// at a time, with per-key errors confined to their group.
func TestBatchQuery(t *testing.T) {
	client, _ := startServer(t, nil)
	keys := []string{"c0/m0", "c1/m2", "no-such-key", "c2/m1"}
	items, err := client.BatchQuery(keys, protocol.QueryParams{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(keys) {
		t.Fatalf("%d groups for %d keys", len(items), len(keys))
	}
	for i, key := range keys {
		if key == "no-such-key" {
			if !strings.Contains(items[i].Err, "unknown object key") {
				t.Fatalf("group %d: err %q", i, items[i].Err)
			}
			continue
		}
		if items[i].Err != "" {
			t.Fatalf("group %d: unexpected error %q", i, items[i].Err)
		}
		want, err := client.Query(key, protocol.QueryParams{K: 3})
		if err != nil {
			t.Fatal(err)
		}
		if len(items[i].Results) != len(want) {
			t.Fatalf("group %d: %d vs %d results", i, len(items[i].Results), len(want))
		}
		for r := range want {
			if items[i].Results[r] != want[r] {
				t.Fatalf("group %d rank %d: batch %v serial %v", i, r, items[i].Results[r], want[r])
			}
		}
		if items[i].Results[0].Key != key {
			t.Fatalf("group %d: self %q not first (%+v)", i, key, items[i].Results[0])
		}
	}
}

// TestBatchQueryBadArgs: malformed batch requests fail the whole request.
func TestBatchQueryBadArgs(t *testing.T) {
	client, _ := startServer(t, nil)
	if _, err := client.BatchQuery(nil, protocol.QueryParams{}); err == nil {
		t.Fatal("empty batch accepted")
	}
	// n out of range.
	keys := make([]string, 300)
	for i := range keys {
		keys[i] = "c0/m0"
	}
	if _, err := client.BatchQuery(keys, protocol.QueryParams{}); err == nil {
		t.Fatal("oversized batch accepted")
	}
}

// TestBatchQueryMatchesPerKeyQuery: on a sketch-only store and on a store
// with the result cache on, every BATCHQUERY group must equal the answer
// QUERY gives for its key — results and filter mode — and an unknown key
// must fail only its own group. The cached store is batched twice: the
// second batch must be served from the cache the first one and QUERY
// filled, as repeated QUERYs are.
func TestBatchQueryMatchesPerKeyQuery(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     func(*core.Config)
		batches int
	}{
		{"sketch-only", func(c *core.Config) { c.SketchOnly = true }, 1},
		{"result-cache", func(c *core.Config) { c.ResultCache = core.ResultCacheParams{Enable: true} }, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, _ := startServerWith(t, nil, tc.cfg)
			keys := []string{"c0/m0", "c1/m2", "no-such-key", "c2/m1", "c0/m0"}
			params := protocol.QueryParams{K: 3}
			for b := 0; b < tc.batches; b++ {
				items, err := client.BatchQuery(keys, params)
				if err != nil {
					t.Fatal(err)
				}
				for i, key := range keys {
					want, meta, err := client.QueryMeta(key, params)
					if key == "no-such-key" {
						if err == nil || !strings.Contains(items[i].Err, "unknown object key") {
							t.Fatalf("batch %d group %d: err %q, QUERY err %v", b, i, items[i].Err, err)
						}
						continue
					}
					if err != nil {
						t.Fatal(err)
					}
					if items[i].Err != "" {
						t.Fatalf("batch %d group %d: unexpected error %q", b, i, items[i].Err)
					}
					if items[i].Meta.Mode != meta.Mode || items[i].Meta.Degraded != meta.Degraded {
						t.Fatalf("batch %d group %d: meta %+v, QUERY meta %+v", b, i, items[i].Meta, meta)
					}
					if b > 0 && items[i].Meta.Cache != core.CacheHit {
						t.Fatalf("batch %d group %d: cache %q, want a hit", b, i, items[i].Meta.Cache)
					}
					if len(items[i].Results) != len(want) {
						t.Fatalf("batch %d group %d: %d vs %d results", b, i, len(items[i].Results), len(want))
					}
					for r := range want {
						if items[i].Results[r] != want[r] {
							t.Fatalf("batch %d group %d rank %d: batch %v QUERY %v", b, i, r, items[i].Results[r], want[r])
						}
					}
				}
			}
		})
	}
}
