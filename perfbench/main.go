// Command perfbench is the end-to-end benchmark of the ferretd daemon.
//
// It builds a corpus through the public ferret facade, starts the ferretd
// binary on it with default flags plus deployment settings, drives it with
// protocol v2 load from this one process, checks every answer, and prints
// one JSON result line:
//
//	perfbench -workload image-uniform -seed 1 -seconds 24 -trace 0 -ferretd .bench_build/bin/ferretd
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1
// the run traces every read and reports the per-layer split instead.
// perfbench/run.py builds both binaries and is the command BENCHMARK.json
// names. Workloads are defined in workloads.json.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

//go:embed workloads.json
var workloadsJSON []byte

// Corpus is the part of a workload's corpus record the generator uses.
type Corpus struct {
	Kind    string `json:"kind"`
	Objects int    `json:"objects"`
	Seed    int64  `json:"seed"`
}

// Workload is the part of a workloads.json entry the generator uses; the
// descriptive fields are the record for readers.
type Workload struct {
	Name         string   `json:"name"`
	Corpus       Corpus   `json:"corpus"`
	FerretdFlags []string `json:"ferretd_flags"`
	ZipfS        float64  `json:"zipf_s"`
	WriteEvery   int      `json:"write_every"`
	ClosedShare  float64  `json:"closed_share"` // the closed loop's share of the measured seconds
	OpenRateQPS  float64  `json:"open_rate_qps"`
	RecallKeys   int      `json:"recall_keys"`
	RecallFloor  float64  `json:"recall_floor"`
}

// Spec is the whole of workloads.json.
type Spec struct {
	Connections int        `json:"connections"`
	K           int        `json:"k"`
	Workloads   []Workload `json:"workloads"`
}

func loadSpec() (Spec, error) {
	var s Spec
	if err := json.Unmarshal(workloadsJSON, &s); err != nil {
		return s, fmt.Errorf("workloads.json: %w", err)
	}
	return s, nil
}

func (s Spec) workload(name string) (Workload, error) {
	for _, w := range s.Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// Options are one run's command-line settings.
type Options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Ferretd  string
	// State is the directory the benchmark writes to: work/ (this run's
	// databases and files, emptied per run), corpus/ and exact/ (caches
	// kept across runs), spans/ (traced runs' span logs).
	State string
	Tiny  bool // self-test scale (bench_test.go): a twentieth of the corpus, few samples
}

// runDeadline bounds a whole run; a run that has not finished by then
// exits non-zero without printing a result.
const runDeadline = 170 * time.Second

func main() {
	var (
		opt   Options
		trace int
	)
	flag.StringVar(&opt.Workload, "workload", "", "workload name from workloads.json")
	flag.Int64Var(&opt.Seed, "seed", 1, "seed for keys, arrivals and written files")
	flag.Float64Var(&opt.Seconds, "seconds", 24, "measured seconds (the workload's closed_share closed loop, the rest open loop)")
	flag.IntVar(&trace, "trace", 0, "1 traces every read and reports per-layer metrics")
	flag.StringVar(&opt.Ferretd, "ferretd", ".bench_build/bin/ferretd", "ferretd binary under test")
	flag.StringVar(&opt.State, "state", ".bench_build", "directory for scratch files, caches and span logs")
	flag.Parse()
	opt.Trace = trace == 1

	spec, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	w, err := spec.workload(opt.Workload)
	if err != nil {
		fatal(err)
	}
	if opt.Seconds <= 0 {
		fatal(errors.New("-seconds must be positive"))
	}
	for _, p := range []*string{&opt.Ferretd, &opt.State} {
		abs, err := filepath.Abs(*p)
		if err != nil {
			fatal(err)
		}
		*p = abs
	}

	b := &bench{spec: spec, w: w, opt: opt}
	// The watchdog and the signal handler stop ferretd before exiting, so
	// no run leaves a daemon behind.
	go func() {
		time.Sleep(runDeadline)
		b.abort(fmt.Errorf("run exceeded %v", runDeadline))
	}()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigs
		b.abort(fmt.Errorf("received %v", s))
	}()

	res, err := b.run()
	b.stopDaemon()
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	os.Stdout.Write(append(line, '\n'))
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
