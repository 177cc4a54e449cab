package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one op share Op;
// Parent is the index of the enclosing span, -1 for an op's root.
type span struct {
	Op     int
	Parent int
	Name   string
	Start  time.Duration // since the tracer's origin
	End    time.Duration
}

// tracer keeps spans in memory for the traced pass and writes them out when
// the run ends. It is safe for concurrent use (serve-mixed records spans
// from two client goroutines).
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// record appends a finished span and returns its index.
func (t *tracer) record(op, parent int, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Op: op, Parent: parent, Name: name,
		Start: start.Sub(t.origin), End: end.Sub(t.origin)})
	return len(t.spans) - 1
}

// begin opens a span now; end closes it and returns its duration.
func (t *tracer) begin(op, parent int, name string) int {
	now := time.Now()
	return t.record(op, parent, name, now, now)
}

func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return now - t.spans[id].Start
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover (overlapping children are
// counted once, and children are clipped to the parent's interval).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi time.Duration }
		ivs := make([]iv, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, reach := time.Duration(0), s.Start
		for _, v := range ivs {
			lo := max(v.lo, reach)
			if v.hi > lo {
				covered += v.hi - lo
				reach = v.hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// dump writes every span as one JSON line with its duration and self time
// in milliseconds.
func (t *tracer) dump(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		rec := struct {
			ID      int     `json:"id"`
			Parent  int     `json:"parent"`
			Op      int     `json:"op"`
			Name    string  `json:"name"`
			StartMS float64 `json:"start_ms"`
			EndMS   float64 `json:"end_ms"`
			SelfMS  float64 `json:"self_ms"`
		}{i, s.Parent, s.Op, s.Name, ms(s.Start), ms(s.End), ms(self[i])}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
