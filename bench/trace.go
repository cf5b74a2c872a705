package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the boundary. Spans of one operation share Op; Parent is the span that
// caused this one (0 for an operation's root span).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns since the tracer was made
	End    int64  `json:"end"`
}

// tracer keeps spans in memory until the run ends. One mutex is enough: the
// busiest traced workload (serve_warm) opens a few tens of thousands of
// spans per second from W goroutines.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int32
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp opens the root span of a new operation and returns its id, which is
// also the op id its descendants carry.
func (t *tracer) newOp(name string) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Op: id, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

// begin opens a child of parent. A nil tracer records nothing, so code that
// is the same traced and untraced (the serve clients) has one path.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.spans[parent-1].Op, Name: name,
		Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// durations returns the length in ns of every closed span called name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start && s.End != 0 {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// selfByName sums, per span name, each span's duration minus the part of it
// its direct children cover — the time spent in that layer itself. Children
// may overlap (the sweep's workers run side by side), so it is the union of
// their intervals that is taken out, not their sum.
func (t *tracer) selfByName() map[string]float64 {
	kids := make(map[int32][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[string]float64)
	for _, s := range t.spans {
		covered, upTo := int64(0), s.Start
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		for _, k := range ks {
			if from := max(k.Start, upTo); k.End > from {
				covered += k.End - from
				upTo = k.End
			}
		}
		self[s.Name] += float64(s.End - s.Start - covered)
	}
	return self
}

// maxSpansInFile caps the trace file; the aggregates above always cover
// every span.
const maxSpansInFile = 20000

// traceFile is the layout of bench/out/trace-<workload>.json.
type traceFile struct {
	Workload     string             `json:"workload"`
	Seed         uint64             `json:"seed"`
	TimeUnit     string             `json:"time_unit"`
	Ops          int32              `json:"ops"`
	SpanCount    int                `json:"span_count"`
	Truncated    bool               `json:"truncated"`
	SelfNsByName map[string]float64 `json:"self_ns_by_name"`
	Counts       map[string]float64 `json:"counts_per_pass"`
	Spans        []span             `json:"spans"`
}

// write saves the trace under dir and returns the file's path.
func (t *tracer) write(dir, workload string, seed uint64, counts map[string]float64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	f := traceFile{
		Workload: workload, Seed: seed, TimeUnit: "ns", Ops: t.ops,
		SpanCount: len(t.spans), SelfNsByName: t.selfByName(), Counts: counts, Spans: t.spans,
	}
	if len(f.Spans) > maxSpansInFile {
		f.Spans, f.Truncated = f.Spans[:maxSpansInFile], true
	}
	raw, err := json.Marshal(f)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, raw, 0o644)
}
