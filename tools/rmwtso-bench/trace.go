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

// tracer records spans around the layer calls the benchmark makes. Spans
// stay in memory until the run ends. A nil tracer records nothing, so
// untraced code paths pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []*span
}

// span is one timed call: its name, interval, parent span and the job or
// unit it belongs to.
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Job    string    `json:"job,omitempty"`
	Start  time.Time `json:"-"`
	Stop   time.Time `json:"-"`
	// StartUS and EndUS are the interval in microseconds since the
	// tracer started, filled in when the spans are written.
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span; its job defaults to the parent's.
func (t *tracer) start(name string, parent *span, job string) *span {
	if t == nil {
		return nil
	}
	s := &span{Name: name, Job: job, Start: time.Now()}
	if parent != nil {
		s.Parent = parent.ID
		if job == "" {
			s.Job = parent.Job
		}
	}
	t.mu.Lock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// end closes the span.
func (s *span) end() {
	if s != nil {
		s.Stop = time.Now()
	}
}

// dur returns the span's duration.
func (s *span) dur() time.Duration { return s.Stop.Sub(s.Start) }

// selfRow aggregates the spans of one name.
type selfRow struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTimes aggregates the closed spans by name: a span's self time is
// its duration minus the part of it its direct children cover.
func (t *tracer) selfTimes() []selfRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]*span{}
	for _, s := range t.spans {
		if s.Parent != 0 && !s.Stop.IsZero() {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := map[string]*selfRow{}
	for _, s := range t.spans {
		if s.Stop.IsZero() {
			continue
		}
		r := rows[s.Name]
		if r == nil {
			r = &selfRow{name: s.Name}
			rows[s.Name] = r
		}
		r.count++
		r.total += s.dur()
		r.self += s.dur() - covered(s, children[s.ID])
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// covered returns how much of the parent's interval the union of the
// children's intervals covers.
func covered(parent *span, kids []*span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Time, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.Stop
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.Stop) {
			b = parent.Stop
		}
		if b.After(a) {
			iv = append(iv, [2]time.Time{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var curA, curB time.Time
	for i, x := range iv {
		if i == 0 || x[0].After(curB) {
			if i > 0 {
				total += curB.Sub(curA)
			}
			curA, curB = x[0], x[1]
			continue
		}
		if x[1].After(curB) {
			curB = x[1]
		}
	}
	if len(iv) > 0 {
		total += curB.Sub(curA)
	}
	return total
}

// printSelfTimes prints the self-time table of the recorded spans.
func (t *tracer) printSelfTimes() {
	fmt.Println("self-time table (spans by name; self = duration minus direct children):")
	fmt.Printf("  %-32s %8s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "self_ms/call")
	for _, r := range t.selfTimes() {
		fmt.Printf("  %-32s %8d %12.3f %12.3f %12.4f\n", r.name, r.count, ms(r.total), ms(r.self), ms(r.self)/float64(r.count))
	}
}

// write dumps every closed span as one JSON object per line.
func (t *tracer) write(path string) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := 0
	for _, s := range t.spans {
		if s.Stop.IsZero() {
			continue
		}
		s.StartUS = float64(s.Start.Sub(t.epoch)) / float64(time.Microsecond)
		s.EndUS = float64(s.Stop.Sub(t.epoch)) / float64(time.Microsecond)
		if err := enc.Encode(s); err != nil {
			f.Close()
			return n, err
		}
		n++
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}
