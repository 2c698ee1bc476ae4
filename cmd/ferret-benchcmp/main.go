// Command ferret-benchcmp merges and compares Ferret benchmark artifacts.
//
// Merge mode combines `go test -bench` text output (microbenchmarks) with a
// ferret-bench -json summary (pipeline runs) into one committed artifact:
//
//	go test ./internal/... -bench 'FilterScan|Hamming|QueryPipeline' -benchmem > micro.txt
//	ferret-bench -exp table2 -json pipeline.json
//	ferret-benchcmp -merge -micro micro.txt -pipeline pipeline.json -out BENCH_2.json
//
// Compare mode guards against performance regressions: it re-reads two
// merged artifacts and fails (exit 1) when a gated microbenchmark's ns/op
// regressed beyond the threshold versus the committed baseline:
//
//	ferret-benchcmp -baseline BENCH_2.json -new current.json
//
// The gate is a comma-separated list of name substrings (default covers the
// filter scan, the Hamming-index probe, the concurrent serving pipeline and
// the l1 kernel); other shared benchmarks are reported informationally.
// When the baseline artifact carries a scaling sweep (ferret-bench -exp
// scaling), compare mode additionally fails if the sweep shows the indexed
// filter losing to the arena scan at its largest corpus, or any point with
// non-identical results.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Micro is one microbenchmark's aggregated result. Repeated runs (-count)
// average into one entry.
type Micro struct {
	Runs        int                `json:"runs"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Artifact is the merged benchmark document (BENCH_N.json).
type Artifact struct {
	Micro    map[string]*Micro `json:"micro"`
	Pipeline json.RawMessage   `json:"pipeline,omitempty"`
}

// parseBenchText extracts benchmark result lines from `go test -bench`
// output. Lines look like:
//
//	BenchmarkFilterScanArena  \t 18266 \t 141062 ns/op \t 0 B/op \t 0 allocs/op
//
// possibly with extra custom metrics ("23.00 emd_evals/op") and a -<procs>
// name suffix under GOMAXPROCS>1.
//
// Repeated lines for one benchmark (`-count=N`) collapse to the per-metric
// minimum: background load only ever inflates a measurement, so min-of-N is
// the noise-robust estimator for a regression gate.
func parseBenchText(path string) (map[string]*Micro, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	mins := make(map[string]*Micro)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		m := mins[name]
		first := m == nil
		if first {
			m = &Micro{Extra: map[string]float64{}}
			mins[name] = m
		}
		m.Runs++
		// fields[1] is the iteration count; the rest are value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad value %q in %q", path, fields[i], sc.Text())
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				if first || v < m.NsPerOp {
					m.NsPerOp = v
				}
			case "B/op":
				if first || v < m.BytesPerOp {
					m.BytesPerOp = v
				}
			case "allocs/op":
				if first || v < m.AllocsPerOp {
					m.AllocsPerOp = v
				}
			default:
				if old, ok := m.Extra[unit]; !ok || v < old {
					m.Extra[unit] = v
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, m := range mins {
		if len(m.Extra) == 0 {
			m.Extra = nil
		}
	}
	if len(mins) == 0 {
		return nil, fmt.Errorf("%s: no benchmark result lines found", path)
	}
	return mins, nil
}

func readArtifact(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &a, nil
}

func merge(microPath, pipelinePath, outPath string) error {
	micro, err := parseBenchText(microPath)
	if err != nil {
		return err
	}
	art := &Artifact{Micro: micro}
	if pipelinePath != "" {
		data, err := os.ReadFile(pipelinePath)
		if err != nil {
			return err
		}
		if !json.Valid(data) {
			return fmt.Errorf("%s: not valid JSON", pipelinePath)
		}
		art.Pipeline = json.RawMessage(data)
	}
	out := os.Stdout
	var f *os.File
	if outPath != "" && outPath != "-" {
		f, err = os.Create(outPath)
		if err != nil {
			return err
		}
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(art); err != nil {
		return err
	}
	// The merged artifact is the regression gate's baseline; surface a
	// failed close instead of silently committing a truncated file.
	if f != nil {
		return f.Close()
	}
	return nil
}

// compare reports per-benchmark deltas and returns an error when a gated
// benchmark regressed beyond threshold (fractional, e.g. 0.20).
func compare(basePath, newPath, gate string, threshold float64) error {
	base, err := readArtifact(basePath)
	if err != nil {
		return err
	}
	cur, err := readArtifact(newPath)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(base.Micro))
	for name := range base.Micro {
		if _, ok := cur.Micro[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("no common microbenchmarks between %s and %s", basePath, newPath)
	}
	gates := strings.Split(gate, ",")
	var failures []string
	gatedSeen := false
	for _, name := range names {
		b, n := base.Micro[name], cur.Micro[name]
		if b.NsPerOp <= 0 {
			continue
		}
		delta := (n.NsPerOp - b.NsPerOp) / b.NsPerOp
		gated := false
		for _, g := range gates {
			if g != "" && strings.Contains(name, g) {
				gated = true
				break
			}
		}
		mark := " "
		if gated {
			gatedSeen = true
			mark = "*"
		}
		fmt.Printf("%s %-36s %12.0f → %12.0f ns/op  %+6.1f%%\n", mark, name, b.NsPerOp, n.NsPerOp, delta*100)
		if gated && delta > threshold {
			failures = append(failures,
				fmt.Sprintf("%s regressed %.1f%% (%.0f → %.0f ns/op, threshold %.0f%%)",
					name, delta*100, b.NsPerOp, n.NsPerOp, threshold*100))
		}
	}
	if !gatedSeen {
		return fmt.Errorf("no benchmark matching %q found in both artifacts", gate)
	}
	if msg := checkScaling(base); msg != "" {
		failures = append(failures, msg)
	}
	if msg := checkIngest(base); msg != "" {
		failures = append(failures, msg)
	}
	if msg := checkServing(base); msg != "" {
		failures = append(failures, msg)
	}
	if len(failures) > 0 {
		return fmt.Errorf("benchmark regression:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Println("benchmarks within threshold")
	return nil
}

// scalingPoint mirrors experiments.ScalingPoint's gated fields.
type scalingPoint struct {
	N         int     `json:"n"`
	Speedup   float64 `json:"speedup"`
	Identical bool    `json:"identical"`
}

// checkScaling gates the committed scaling sweep (ferret-bench -exp
// scaling), when the baseline artifact carries one: at its largest corpus
// the indexed filter must still beat the arena scan, with bit-identical
// answers at every point. Returns a failure message or "".
func checkScaling(base *Artifact) string {
	if len(base.Pipeline) == 0 {
		return ""
	}
	var summary struct {
		Results []struct {
			Name string          `json:"name"`
			Rows json.RawMessage `json:"rows"`
		} `json:"results"`
	}
	if err := json.Unmarshal(base.Pipeline, &summary); err != nil {
		return ""
	}
	for _, res := range summary.Results {
		if res.Name != "scaling" {
			continue
		}
		var points []scalingPoint
		if err := json.Unmarshal(res.Rows, &points); err != nil || len(points) == 0 {
			return fmt.Sprintf("scaling sweep in baseline is unreadable: %v", err)
		}
		last := points[0]
		for _, pt := range points {
			if !pt.Identical {
				return fmt.Sprintf("scaling sweep at n=%d: indexed results diverged from the scan", pt.N)
			}
			if pt.N > last.N {
				last = pt
			}
		}
		fmt.Printf("* scaling sweep: index %.2fx vs scan at n=%d\n", last.Speedup, last.N)
		if last.Speedup <= 1 {
			return fmt.Sprintf("scaling sweep at n=%d: indexed filter no faster than the scan (%.2fx)",
				last.N, last.Speedup)
		}
		return ""
	}
	return ""
}

// ingestRow mirrors experiments.IngestRow's gated fields.
type ingestRow struct {
	Arm        string  `json:"arm"`
	QPS        float64 `json:"qps"`
	Ingested   int     `json:"ingested"`
	Seals      int64   `json:"seals"`
	Merges     int64   `json:"merges"`
	QPSPenalty float64 `json:"qps_penalty"`
}

// maxIngestPenalty is the mixed-workload gate: sustained ingest with
// background compaction may cost at most this fraction of read-only query
// throughput.
const maxIngestPenalty = 0.10

// checkIngest gates the committed mixed-ingest run (ferret-bench -exp
// ingest), when the baseline artifact carries one: the write stream must
// actually have streamed (objects ingested, tail seals observed) and the
// query-throughput penalty versus the bracketing read-only arms must stay
// under 10%. Returns a failure message or "".
func checkIngest(base *Artifact) string {
	if len(base.Pipeline) == 0 {
		return ""
	}
	var summary struct {
		Results []struct {
			Name string          `json:"name"`
			Rows json.RawMessage `json:"rows"`
		} `json:"results"`
	}
	if err := json.Unmarshal(base.Pipeline, &summary); err != nil {
		return ""
	}
	for _, res := range summary.Results {
		if res.Name != "ingest" {
			continue
		}
		var rows []ingestRow
		if err := json.Unmarshal(res.Rows, &rows); err != nil || len(rows) == 0 {
			return fmt.Sprintf("ingest run in baseline is unreadable: %v", err)
		}
		for _, r := range rows {
			if r.Arm != "mixed" {
				continue
			}
			fmt.Printf("* ingest run: %.1f qps under %d sustained writes (%d seals, %d merges), penalty %.1f%%\n",
				r.QPS, r.Ingested, r.Seals, r.Merges, r.QPSPenalty*100)
			if r.Ingested == 0 {
				return "ingest run: mixed arm streamed no objects"
			}
			if r.Seals == 0 {
				return "ingest run: write stream never sealed a tail segment"
			}
			if r.QPSPenalty > maxIngestPenalty {
				return fmt.Sprintf("ingest run: %.1f%% query-throughput penalty under sustained writes (limit %.0f%%)",
					r.QPSPenalty*100, maxIngestPenalty*100)
			}
			return ""
		}
		return "ingest run in baseline has no mixed arm"
	}
	return ""
}

// servingRow mirrors experiments.ServingRow's gated fields.
type servingRow struct {
	Arm     string  `json:"arm"`
	QPS     float64 `json:"qps"`
	HitRate float64 `json:"hit_rate"`
}

// minServingSpeedup is the serving-path gate: on the hot working set the
// result cache must at least double wire-level throughput versus the same
// workload with the cache off.
const minServingSpeedup = 2.0

// checkServing gates the committed wire-serving run (ferret-bench -exp
// serving), when the baseline artifact carries one: the cached hot arm must
// actually have hit the cache and its QPS must be at least
// minServingSpeedup times the uncached hot arm's. Returns a failure message
// or "".
func checkServing(base *Artifact) string {
	if len(base.Pipeline) == 0 {
		return ""
	}
	var summary struct {
		Results []struct {
			Name string          `json:"name"`
			Rows json.RawMessage `json:"rows"`
		} `json:"results"`
	}
	if err := json.Unmarshal(base.Pipeline, &summary); err != nil {
		return ""
	}
	for _, res := range summary.Results {
		if res.Name != "serving" {
			continue
		}
		var rows []servingRow
		if err := json.Unmarshal(res.Rows, &rows); err != nil || len(rows) == 0 {
			return fmt.Sprintf("serving run in baseline is unreadable: %v", err)
		}
		var hot, uncached *servingRow
		for i := range rows {
			switch rows[i].Arm {
			case "hot-cached":
				hot = &rows[i]
			case "hot-uncached":
				uncached = &rows[i]
			}
		}
		if hot == nil || uncached == nil {
			return "serving run in baseline lacks the hot-cached/hot-uncached arm pair"
		}
		speedup := 0.0
		if uncached.QPS > 0 {
			speedup = hot.QPS / uncached.QPS
		}
		fmt.Printf("* serving run: hot-cached %.0f qps vs uncached %.0f qps (%.2fx, %.0f%% hits)\n",
			hot.QPS, uncached.QPS, speedup, hot.HitRate*100)
		if hot.HitRate <= 0 {
			return "serving run: hot-cached arm never hit the result cache"
		}
		if speedup < minServingSpeedup {
			return fmt.Sprintf("serving run: hot-cached only %.2fx uncached throughput (floor %.1fx)",
				speedup, minServingSpeedup)
		}
		return ""
	}
	return ""
}

func main() {
	mergeMode := flag.Bool("merge", false, "merge -micro/-pipeline into -out")
	micro := flag.String("micro", "", "go test -bench text output (merge mode)")
	pipeline := flag.String("pipeline", "", "ferret-bench -json output (merge mode, optional)")
	out := flag.String("out", "-", "merged artifact path (merge mode)")
	baseline := flag.String("baseline", "", "committed baseline artifact (compare mode)")
	newPath := flag.String("new", "", "freshly measured artifact (compare mode)")
	gate := flag.String("gate", "FilterScanArena,HammingIndexProbe,QueryPipelineConcurrent,QueryPipelineTraced,BenchmarkL1",
		"comma-separated substrings naming the gated benchmark(s)")
	threshold := flag.Float64("threshold", 0.20, "maximum tolerated fractional ns/op regression")
	flag.Parse()

	var err error
	switch {
	case *mergeMode:
		if *micro == "" {
			err = fmt.Errorf("-merge requires -micro")
		} else {
			err = merge(*micro, *pipeline, *out)
		}
	case *baseline != "" && *newPath != "":
		err = compare(*baseline, *newPath, *gate, *threshold)
	default:
		err = fmt.Errorf("use -merge -micro FILE [-pipeline FILE] -out FILE, or -baseline FILE -new FILE")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ferret-benchcmp: %v\n", err)
		os.Exit(1)
	}
}
