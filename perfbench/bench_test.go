package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"testing"

	"ferret/internal/protocol"
)

func answer(key string) []protocol.Result {
	res := []protocol.Result{{Key: key, Distance: 0}}
	for i := 1; i < 10; i++ {
		res = append(res, protocol.Result{Key: "other" + string(rune('a'+i)), Distance: float64(i) / 10})
	}
	return res
}

func TestCheckReadAcceptsValidAnswer(t *testing.T) {
	if err := checkRead("q", answer("q"), 10); err != nil {
		t.Fatal(err)
	}
	// An exact duplicate may take rank 0 as long as the key shares its
	// zero distance.
	res := answer("q")
	res[0], res[1] = protocol.Result{Key: "twin", Distance: 0}, protocol.Result{Key: "q", Distance: 0}
	if err := checkRead("q", res, 10); err != nil {
		t.Fatal(err)
	}
}

// TestCheckReadRejectsPlantedWrongAnswers feeds the checker corrupted
// answers: every one must be rejected.
func TestCheckReadRejectsPlantedWrongAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		res := answer("q")
		rng.Shuffle(len(res), func(a, b int) { res[a], res[b] = res[b], res[a] })
		if res[0].Key == "q" && sortedByDistance(res) {
			continue // the shuffle left the answer intact
		}
		if checkRead("q", res, 10) == nil {
			t.Fatalf("shuffled answer accepted: %v", res)
		}
	}
	cases := map[string][]protocol.Result{
		"short":        answer("q")[:9],
		"key missing":  append([]protocol.Result{{Key: "x", Distance: 0}}, answer("q")[1:]...),
		"key not at 0": append(answer("q")[1:], protocol.Result{Key: "q", Distance: 2}),
		"negative":     append(answer("q")[:9], protocol.Result{Key: "z", Distance: -1}),
	}
	for name, res := range cases {
		if checkRead("q", res, 10) == nil {
			t.Errorf("%s: accepted %v", name, res)
		}
	}
}

func sortedByDistance(res []protocol.Result) bool {
	for i := 1; i < len(res); i++ {
		if res[i].Distance < res[i-1].Distance {
			return false
		}
	}
	return true
}

func TestRecallAt(t *testing.T) {
	exact := []protocol.Result{{Key: "a", Distance: 0}, {Key: "b", Distance: 1}, {Key: "c", Distance: 2}}
	if r := recallAt(exact, exact); r != 1 {
		t.Fatalf("identical answers: recall %v", r)
	}
	got := []protocol.Result{{Key: "a", Distance: 0}, {Key: "x", Distance: 1.5}, {Key: "y", Distance: 3}}
	if r := recallAt(got, exact); r != 1.0/3 {
		t.Fatalf("one of three: recall %v", r)
	}
	// A tie with the exact k-th distance is as good as the exact choice.
	got = []protocol.Result{{Key: "a", Distance: 0}, {Key: "b", Distance: 1}, {Key: "tie", Distance: 2}}
	if r := recallAt(got, exact); r != 1 {
		t.Fatalf("tie at k-th distance: recall %v", r)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if q := quantile(xs, 0.99); q != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want 990", q)
	}
	if n := beyond(1000, 0.99); n != 10 {
		t.Fatalf("beyond p99 of 1000 = %d, want 10", n)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the self-test checks.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestWorkloadsTiny runs every workload end to end at a twentieth of its
// corpus, untraced and traced, against a ferretd built from this tree, and
// checks that each run is correct and reports every metric BENCHMARK.json
// names, with its unit.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("builds ferretd and runs every workload")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(spec.Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, workloads.json %d", len(bj.Workloads), len(spec.Workloads))
	}
	dir := t.TempDir()
	ferretd := filepath.Join(dir, "ferretd")
	build := exec.Command("go", "build", "-o", ferretd, "./cmd/ferretd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building ferretd: %v\n%s", err, out)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(100))
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(-1))

	for _, entry := range bj.Workloads {
		w, err := spec.workload(entry.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			opt := Options{Workload: w.Name, Seed: 7, Seconds: 2, Trace: traced, Ferretd: ferretd, State: filepath.Join(dir, "state"), Tiny: true}
			b := &bench{spec: spec, w: w, opt: opt}
			res, err := b.run()
			b.stopDaemon()
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed > 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := bj.EndToEnd
			if traced {
				want = bj.PerLayer
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			if traced {
				// server.wire_buf_miss_frac is a ratio over the pool's
				// gets: the snapshots must see the gets the reads made.
				if gets := delta(b.layers.v1, b.layers.v2, "wire_buf_gets_total"); gets <= 0 {
					t.Errorf("%s: wire buffer gets over the open loop = %v, want > 0", w.Name, gets)
				}
			}
		}
	}
}
