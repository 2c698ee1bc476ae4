package experiments

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"ferret/internal/core"
	"ferret/internal/kvstore"
	"ferret/internal/object"
	"ferret/internal/synth"
)

// ThroughputRow is one arm of the closed-loop serving benchmark: a fixed
// number of clients, each issuing its next query the moment the previous
// answer returns, against an engine that filters by arena scan (the default
// configuration) or through the multi-table Hamming index. QPS is
// wall-clock throughput over the whole run; the latency percentiles are
// per-query as a client sees them.
type ThroughputRow struct {
	Concurrency     int            `json:"concurrency"`
	Arm             string         `json:"arm"` // "scan" or "hindex"
	Queries         int            `json:"queries"`
	WallSec         float64        `json:"wall_sec"`
	QPS             float64        `json:"qps"`
	Latency         LatencySummary `json:"latency"`
	SpeedupVsSerial float64        `json:"speedup_vs_serial,omitempty"`
}

// ThroughputOptions narrows the sweep from ferret-bench's -concurrency
// flag; the zero value runs the full grid (both arms, clients doubling
// 1..8).
type ThroughputOptions struct {
	Concurrencies []int // nil = {1, 2, 4, 8}
}

// Throughput measures serving throughput on the mixed-shape speed corpus
// (the heaviest speed dataset: 800-bit sketches). The corpus is ingested
// once; the hindex arm reopens the same store with the Hamming index
// enabled, so both arms search identical data. Queries use the engine's
// default filter settings, as the serving experiment's protocol queries do.
func Throughput(scale Scale, opts ThroughputOptions) ([]ThroughputRow, error) {
	dt := mixedShapeType()
	objs := synth.MixedShapeObjects(scale.MixedShapeN, 301)
	queries := synth.MixedShapeObjects(64, 909)
	perClient := 20 * scale.SpeedQueries

	dir, err := os.MkdirTemp("", "ferret-exp-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	open := func(indexed bool) (*core.Engine, error) {
		return core.Open(core.Config{
			Dir:           dir,
			Sketch:        dt.sketchCfg(dt.sketchBits),
			RankThreshold: dt.rankThresh,
			HIndex:        core.HIndexParams{Enable: indexed},
			Store:         kvstore.Options{Sync: kvstore.SyncPeriodic, SyncInterval: time.Minute},
		})
	}

	concs := opts.Concurrencies
	if len(concs) == 0 {
		concs = []int{1, 2, 4, 8}
	}

	var rows []ThroughputRow
	ingested := false
	for _, indexed := range []bool{false, true} {
		e, err := open(indexed)
		if err != nil {
			return nil, err
		}
		if !ingested {
			for i := range objs {
				if _, err := e.Ingest(objs[i], nil); err != nil {
					e.Close()
					return nil, fmt.Errorf("experiments: ingest %s: %w", objs[i].Key, err)
				}
			}
			ingested = true
		}
		arm := "scan"
		if indexed {
			arm = "hindex"
		}
		for _, c := range concs {
			row, err := measureClosedLoop(e, queries, c, perClient, 20)
			if err != nil {
				e.Close()
				return nil, err
			}
			row.Arm = arm
			rows = append(rows, row)
		}
		if err := e.Close(); err != nil {
			return nil, err
		}
	}

	// Speedup relative to the serial baseline: the scan arm's single-client
	// row (with -concurrency above 1 there is no baseline and the column
	// stays zero).
	for _, r := range rows {
		if r.Arm == "scan" && r.Concurrency == 1 && r.QPS > 0 {
			for i := range rows {
				rows[i].SpeedupVsSerial = rows[i].QPS / r.QPS
			}
			break
		}
	}
	return rows, nil
}

// measureClosedLoop runs `clients` goroutines, each issuing `perClient`
// Filtering-mode queries back to back, and condenses the run into one row.
func measureClosedLoop(e *core.Engine, queries []object.Object, clients, perClient, k int) (ThroughputRow, error) {
	lats := make([][]float64, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			secs := make([]float64, 0, perClient)
			opt := core.QueryOptions{Mode: core.Filtering, K: k}
			for i := 0; i < perClient; i++ {
				q := queries[(c*perClient+i)%len(queries)]
				t0 := time.Now()
				if _, err := e.Query(q, opt); err != nil {
					errs[c] = err
					return
				}
				secs = append(secs, time.Since(t0).Seconds())
			}
			lats[c] = secs
		}(c)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	for _, err := range errs {
		if err != nil {
			return ThroughputRow{}, err
		}
	}
	var all []float64
	for _, s := range lats {
		all = append(all, s...)
	}
	row := ThroughputRow{
		Concurrency: clients,
		Queries:     len(all),
		WallSec:     wall,
		Latency:     summarizeLatencies(all),
	}
	if wall > 0 {
		row.QPS = float64(len(all)) / wall
	}
	// The summary's QPS field is the serial sum-of-latency rate, which
	// double-counts overlapped time under concurrency; the closed-loop
	// wall-clock rate is the one that means "served queries per second".
	row.Latency.QPS = row.QPS
	return row, nil
}

// FprintThroughput renders the sweep as a table.
func FprintThroughput(w io.Writer, rows []ThroughputRow) {
	fmt.Fprintf(w, "%8s %8s %8s %10s %10s %10s %10s %9s\n",
		"Clients", "Arm", "Queries", "QPS", "p50(ms)", "p90(ms)", "p99(ms)", "Speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %8s %8d %10.1f %10.2f %10.2f %10.2f %8.2fx\n",
			r.Concurrency, r.Arm, r.Queries, r.QPS,
			r.Latency.P50Sec*1e3, r.Latency.P90Sec*1e3, r.Latency.P99Sec*1e3,
			r.SpeedupVsSerial)
	}
}
