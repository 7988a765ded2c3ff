package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps spans in memory while the run lasts and writes them out
// when it ends. A span's name is "<module>.<call>": the module is the
// gocbs package whose public function the benchmark called, or "bench"
// for the benchmark's own grouping spans. Spans are recorded only while
// the tracer is on, so an untraced run pays one atomic load per call.
type tracer struct {
	runID string
	t0    time.Time
	on    atomic.Bool
	next  atomic.Uint64

	mu     sync.Mutex
	spans  []spanRec
	allocs map[string]float64 // allocations per call, by span name
	cal    *calibrator        // made by the first measure; measure runs serially
}

type spanRec struct {
	RunID  string `json:"run"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// span is an open span; the zero value (tracing off) ends as a no-op.
type span struct {
	t      *tracer
	id     uint64
	parent uint64
	name   string
	start  int64
}

func newTracer(runID string) *tracer {
	return &tracer{runID: runID, t0: time.Now(), allocs: map[string]float64{}}
}

func (t *tracer) begin(name string, parent uint64) span {
	if t == nil || !t.on.Load() {
		return span{}
	}
	return span{t: t, id: t.next.Add(1), parent: parent, name: name, start: int64(time.Since(t.t0))}
}

func (s span) end() {
	if s.t == nil {
		return
	}
	end := int64(time.Since(s.t.t0))
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, spanRec{RunID: s.t.runID, ID: s.id, Parent: s.parent, Name: s.name, Start: s.start, End: end})
	s.t.mu.Unlock()
}

// set turns recording on or off.
func (t *tracer) set(on bool) { t.on.Store(on) }

func (t *tracer) numSpans() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// measure calls fn n times, each inside a span named name, and returns
// the mean seconds per call at reference host speed. It also records
// the Go heap allocations per call, which are exact because the
// benchmark calls measure only while no other goroutine of its own is
// running.
func (t *tracer) measure(name string, parent uint64, n int, fn func() error) (float64, error) {
	if t.cal == nil {
		t.cal = newCalibrator()
	}
	speed := t.cal.speed()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var total time.Duration
	for i := 0; i < n; i++ {
		sp := t.begin(name, parent)
		t0 := time.Now()
		err := fn()
		total += time.Since(t0)
		sp.end()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	runtime.ReadMemStats(&after)
	t.mu.Lock()
	t.allocs[name] = float64(after.Mallocs-before.Mallocs) / float64(n)
	t.mu.Unlock()
	return total.Seconds() / float64(n) * (speed + t.cal.speed()) / 2, nil
}

// selfTimes returns each span's duration minus the part of it that its
// children cover, summed by span name, with the span counts.
func (t *tracer) selfTimes() (self map[string]time.Duration, count map[string]int) {
	t.mu.Lock()
	spans := append([]spanRec(nil), t.spans...)
	t.mu.Unlock()
	children := map[uint64][]spanRec{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self, count = map[string]time.Duration{}, map[string]int{}
	for _, s := range spans {
		self[s.Name] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
		count[s.Name]++
	}
	return self, count
}

// covered returns how many nanoseconds of parent the union of kids
// covers.
func covered(parent spanRec, kids []spanRec) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return total + curE - curS
}

// layerTable renders per-module self time, then per-call rows with
// span counts and allocations per call.
func (t *tracer) layerTable() []string {
	self, count := t.selfTimes()
	byLayer := map[string]time.Duration{}
	var total time.Duration
	names := make([]string, 0, len(self))
	for n, d := range self {
		byLayer[layerOf(n)] += d
		total += d
		names = append(names, n)
	}
	sort.Strings(names)
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return byLayer[layers[i]] > byLayer[layers[j]] })
	lines := []string{fmt.Sprintf("%-12s %12s %7s", "layer", "self_ms", "share")}
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = float64(byLayer[l]) / float64(total) * 100
		}
		lines = append(lines, fmt.Sprintf("%-12s %12.3f %6.2f%%", l, byLayer[l].Seconds()*1e3, share))
	}
	lines = append(lines, fmt.Sprintf("%-34s %9s %12s %14s", "span", "count", "self_ms", "allocs_per_call"))
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, n := range names {
		allocs := "-"
		if a, ok := t.allocs[n]; ok {
			allocs = fmt.Sprintf("%.1f", a)
		}
		lines = append(lines, fmt.Sprintf("%-34s %9d %12.3f %14s", n, count[n], self[n].Seconds()*1e3, allocs))
	}
	return lines
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// write stores every span as one JSON object per line in dir and
// returns the file's path.
func (t *tracer) write(dir string) (string, error) {
	path := filepath.Join(dir, "spans-"+t.runID+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
