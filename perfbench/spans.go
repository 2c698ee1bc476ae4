package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one of the benchmark's own spans: a set-up, a phase, or one
// client call (its ID is the request ID, its parent the phase). Times are
// microseconds since the run started. A traced read carries the server's
// trace ID, which links it to /debug/traces.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
	TraceID string `json:"trace_id,omitempty"`
	OK      bool   `json:"ok"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) add(parent int, name string, start, end time.Time, traceID string, ok bool) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Name: name,
		StartUS: start.Sub(l.t0).Microseconds(), EndUS: end.Sub(l.t0).Microseconds(),
		TraceID: traceID, OK: ok,
	})
	return id
}

// addPhase records a phase span and one child span per client call.
func (l *spanLog) addPhase(p *phaseResult) {
	if len(p.samples) == 0 {
		return
	}
	start, end := p.samples[0].start, p.samples[0].end
	for i := range p.samples {
		s := &p.samples[i]
		if s.start.Before(start) {
			start = s.start
		}
		if s.end.After(end) {
			end = s.end
		}
	}
	parent := l.add(0, p.name, start, end, "", len(p.errs) == 0)
	for i := range p.samples {
		s := &p.samples[i]
		l.add(parent, s.kind.String(), s.start, s.end, s.traceID, s.ok)
	}
}

// write saves the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
