package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer (or one benchmark-owned grouping
// such as a row or a request). Spans of one verification share Group.
type span struct {
	ID     int
	Parent int // -1 for a root span
	Group  int
	Name   string
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
	// Wraps names the private steps a span contains when the nearest
	// public call is all the benchmark can reach.
	Wraps string
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so instrumented code paths
// are identical in both modes apart from the clock reads.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	group int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newGroup returns a fresh verification id.
func (t *tracer) newGroup() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.group++
	return t.group
}

// begin opens a span and returns its id (-1 when untraced).
func (t *tracer) begin(name string, parent, group int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Group: group, Name: name, Start: now, End: -1})
	return id
}

// wrap is begin for a span around a public call that contains private
// steps; wraps says which.
func (t *tracer) wrap(name, wraps string, parent, group int) int {
	id := t.begin(name, parent, group)
	if t != nil {
		t.mu.Lock()
		t.spans[id].Wraps = wraps
		t.mu.Unlock()
	}
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot returns the closed spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

type interval struct{ lo, hi time.Duration }

// unionLen is the total length of the union of intervals, each clipped
// to [lo, hi].
func unionLen(ivs []interval, lo, hi time.Duration) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if b > a {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case iv.lo <= cur.hi:
			cur.hi = max(cur.hi, iv.hi)
		default:
			total += cur.hi - cur.lo
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// selfTimes maps each span id to its self time: its duration minus the
// part of its interval that its child spans cover. Children that overlap
// each other (concurrent calls) are counted once.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]interval{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - unionLen(children[s.ID], s.Start, s.End)
	}
	return out
}

// layerOf is the layer a span belongs to: the part of its name before
// the first dot. Benchmark-owned spans are in layer "bench".
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// uncoveredShare is the share of [lo, hi] that no layer span (any span
// outside layer "bench") covers.
func uncoveredShare(spans []span, lo, hi time.Duration) float64 {
	if hi <= lo {
		return 0
	}
	var ivs []interval
	for _, s := range spans {
		if layerOf(s.Name) != "bench" {
			ivs = append(ivs, interval{s.Start, s.End})
		}
	}
	return 1 - float64(unionLen(ivs, lo, hi))/float64(hi-lo)
}

// selfMS sums the self time, in ms, of every span whose name is listed.
func selfMS(spans []span, self map[int]time.Duration, names ...string) float64 {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	var total time.Duration
	for _, s := range spans {
		if want[s.Name] {
			total += self[s.ID]
		}
	}
	return ms(total)
}

// writeSpans writes spans to path as a JSON array, times in
// microseconds since the tracer's epoch.
func writeSpans(path string, spans []span) error {
	type spanJSON struct {
		ID      int     `json:"id"`
		Parent  int     `json:"parent"`
		Group   int     `json:"group"`
		Name    string  `json:"name"`
		StartUS float64 `json:"start_us"`
		EndUS   float64 `json:"end_us"`
		Wraps   string  `json:"wraps,omitempty"`
	}
	out := make([]spanJSON, len(spans))
	for i, s := range spans {
		out[i] = spanJSON{s.ID, s.Parent, s.Group, s.Name,
			float64(s.Start) / float64(time.Microsecond), float64(s.End) / float64(time.Microsecond), s.Wraps}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
