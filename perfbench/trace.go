package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own code
// around the call. Parent is the id of the enclosing span (0 for none) and
// Op the pass or request the span belongs to.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Op: op, Start: now})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds an already-finished span, for intervals measured elsewhere
// (a request's queue wait, read from its Ticket).
func (t *tracer) record(name string, parent int32, op int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: int32(len(t.spans) + 1), Parent: parent, Op: op,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// durations returns the durations in ms of the spans called name whose
// outermost ancestor is called root ("" for any).
func (t *tracer) durations(name, root string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && (root == "" || t.root(s).Name == root) {
			out = append(out, ms(s.End-s.Start))
		}
	}
	return out
}

// layerTime is one span name's total and self time over the run.
type layerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes sums, per span name, the total time and the self time: span
// time minus the part of it that the span's children cover.
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int32][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] = append(child[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	byName := map[string]*layerTime{}
	var names []string
	for _, s := range t.spans {
		// Group by outermost ancestor too, so a layer's time on one
		// variant (pass.1w, pass.pw, ...) is not mixed with another's.
		name := s.Name
		if top := t.root(s); top.ID != s.ID {
			name = top.Name + "/" + s.Name
		}
		lt := byName[name]
		if lt == nil {
			lt = &layerTime{Name: name}
			byName[name] = lt
			names = append(names, name)
		}
		d := s.End - s.Start
		lt.Count++
		lt.TotalMS += ms(d)
		lt.SelfMS += ms(d - covered(child[s.ID], s.Start, s.End))
	}
	out := make([]layerTime, 0, len(names))
	for _, n := range names {
		out = append(out, *byName[n])
	}
	return out
}

// root returns the outermost ancestor of s (s itself if it has no parent).
// The caller holds t.mu.
func (t *tracer) root(s span) span {
	for s.Parent != 0 {
		s = t.spans[s.Parent-1]
	}
	return s
}

// covered returns how much of [lo, hi) the intervals cover, counting
// overlapping children once.
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur, curEnd := int64(-1), int64(-1)
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b <= a {
			continue
		}
		if a > curEnd {
			if curEnd > cur {
				total += curEnd - cur
			}
			cur, curEnd = a, b
		} else if b > curEnd {
			curEnd = b
		}
	}
	if curEnd > cur {
		total += curEnd - cur
	}
	return total
}

// write stores the spans and the per-name self times as JSON under dir and
// returns the file's path.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("create span directory: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	self := t.selfTimes()
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Workload string      `json:"workload"`
		Seed     int64       `json:"seed"`
		Layers   []layerTime `json:"layers"`
		Spans    []span      `json:"spans"`
	}{workload, seed, self, t.spans})
	t.mu.Unlock()
	if err != nil {
		return "", fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}
