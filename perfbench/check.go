package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"

	"ferret/internal/protocol"
)

// checkRead validates one filtering answer for a live key: exactly k
// results in non-decreasing distance order, led by the key itself at
// distance 0 (an exact duplicate may share rank 0's distance, so the key
// must be among the leading zero-distance results).
func checkRead(key string, res []protocol.Result, k int) error {
	if len(res) != k {
		return fmt.Errorf("query %s: %d results, want %d", key, len(res), k)
	}
	for i := range res {
		d := res[i].Distance
		if math.IsNaN(d) || d < 0 {
			return fmt.Errorf("query %s: result %d has distance %v", key, i, d)
		}
		if i > 0 && d < res[i-1].Distance {
			return fmt.Errorf("query %s: result %d distance %v below result %d's %v", key, i, d, i-1, res[i-1].Distance)
		}
	}
	if res[0].Distance != 0 {
		return fmt.Errorf("query %s: rank 0 %s at distance %v, want the key itself at 0", key, res[0].Key, res[0].Distance)
	}
	for i := 0; i < len(res) && res[i].Distance == 0; i++ {
		if res[i].Key == key {
			return nil
		}
	}
	return fmt.Errorf("query %s: key missing from the zero-distance head (rank 0 is %s)", key, res[0].Key)
}

// recallAt scores one filtering answer against the exact answer: the share
// of the exact top-k it returns. A returned object outside the exact set
// still counts when its distance ties the exact k-th distance, since the
// exact answer's choice among ties is arbitrary.
func recallAt(got, exact []protocol.Result) float64 {
	if len(exact) == 0 {
		return 0
	}
	want := make(map[string]bool, len(exact))
	for _, r := range exact {
		want[r.Key] = true
	}
	kth := exact[len(exact)-1].Distance
	hits := 0
	for _, r := range got {
		if want[r.Key] || math.Abs(r.Distance-kth) <= 1e-9*math.Max(1, kth) {
			hits++
		}
	}
	if hits > len(exact) {
		hits = len(exact)
	}
	return float64(hits) / float64(len(exact))
}

// exactCache keeps exact (mode=bruteforce) answers per corpus, recall
// sample and ferretd binary, so a commit's repeated runs compute them once.
type exactCache struct {
	path string
}

func newExactCache(dir, corpusID, binary string) (*exactCache, error) {
	sum, err := fileHash(binary)
	if err != nil {
		return nil, err
	}
	return &exactCache{path: filepath.Join(dir, corpusID+"-"+sum+".json")}, nil
}

// fileHash is a short hex digest of a file's contents.
func fileHash(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("hashing %s: %w", path, err)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

func (c *exactCache) load() map[string][]protocol.Result {
	b, err := os.ReadFile(c.path)
	if err != nil {
		return nil
	}
	var m map[string][]protocol.Result
	if json.Unmarshal(b, &m) != nil {
		return nil
	}
	return m
}

func (c *exactCache) store(m map[string][]protocol.Result) error {
	if err := os.MkdirAll(filepath.Dir(c.path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	tmp := c.path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, c.path)
}

// recallCheck measures recall@k of filtering answers on the sample keys
// against exact answers, computing missing exact answers with
// mode=bruteforce across the connections. Every filtering answer is also
// checked like a load read; failures are counted per operation.
func recallCheck(conns []*protocol.Client, keys []string, k int, cache *exactCache) (recall float64, attempted, failed int, err error) {
	exact := cache.load()
	if exact == nil || !hasAll(exact, keys) {
		logf("computing exact answers for %d keys with mode=bruteforce", len(keys))
		exact, err = bruteForce(conns, keys, k)
		if err != nil {
			return 0, 0, 0, err
		}
		if err := cache.store(exact); err != nil {
			return 0, 0, 0, err
		}
	}
	sum := 0.0
	for _, key := range keys {
		attempted++
		res, err := conns[0].Query(key, protocol.QueryParams{K: k})
		if err == nil {
			err = checkRead(key, res, k)
		}
		if err != nil {
			logf("recall check: %v", err)
			failed++
			continue
		}
		sum += recallAt(res, exact[key])
	}
	return sum / float64(len(keys)), attempted, failed, nil
}

func hasAll(m map[string][]protocol.Result, keys []string) bool {
	for _, k := range keys {
		if _, ok := m[k]; !ok {
			return false
		}
	}
	return true
}

func bruteForce(conns []*protocol.Client, keys []string, k int) (map[string][]protocol.Result, error) {
	var (
		mu    sync.Mutex
		out   = make(map[string][]protocol.Result, len(keys))
		first error
		wg    sync.WaitGroup
	)
	work := make(chan string, len(keys))
	for _, key := range keys {
		work <- key
	}
	close(work)
	for _, c := range conns {
		wg.Add(1)
		go func(c *protocol.Client) {
			defer wg.Done()
			for key := range work {
				res, err := c.Query(key, protocol.QueryParams{K: k, Mode: "bruteforce"})
				if err == nil {
					err = checkRead(key, res, k)
				}
				mu.Lock()
				if err != nil && first == nil {
					first = fmt.Errorf("exact answer: %w", err)
				}
				out[key] = res
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return out, first
}
