package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"time"
)

// span is one timed call into a layer: its name (layer.call), start and
// end relative to the tracer's base time, the span that caused it and the
// request it served. Spans live in memory until the run ends.
type span struct {
	name       string
	start, end int64 // ns since tracer base
	parent     int   // index in the same recorder, -1 for a root
	req        int64 // request id, -1 when the call serves no request
}

// tracer owns every recorder of one traced pass. A nil *tracer (and the
// nil recorders it hands out) records nothing, so untraced passes run the
// same code without spans.
type tracer struct {
	base time.Time
	recs []*recorder
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// recorder is one goroutine's span buffer; only its goroutine touches it.
type recorder struct {
	base  time.Time
	spans []span
}

// recorder hands out a buffer for one goroutine. Call it before starting
// the goroutine; nil when tracing is off.
func (t *tracer) recorder() *recorder {
	if t == nil {
		return nil
	}
	r := &recorder{base: t.base, spans: make([]span, 0, 1<<12)}
	t.recs = append(t.recs, r)
	return r
}

// begin opens a span and returns its index, -1 when tracing is off.
func (r *recorder) begin(name string, parent int, req int64) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{name: name, start: int64(time.Since(r.base)), parent: parent, req: req})
	return len(r.spans) - 1
}

// end closes the span begin returned.
func (r *recorder) end(i int) {
	if r == nil || i < 0 {
		return
	}
	r.spans[i].end = int64(time.Since(r.base))
}

// all returns every span with the recorder's index offset applied to
// parents, so indices are global across recorders.
func (t *tracer) all() []span {
	var out []span
	for _, r := range t.recs {
		off := len(out)
		for _, s := range r.spans {
			if s.parent >= 0 {
				s.parent += off
			}
			out = append(out, s)
		}
	}
	return out
}

// durations returns the duration in ns of every span named name, in
// recording order per recorder.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// childSums returns, for every span named parent, the summed duration in
// ns of its direct children whose names are among names.
func childSums(spans []span, parent string, names ...string) []float64 {
	sums := map[int]float64{}
	var order []int
	for i, s := range spans {
		if s.name == parent {
			sums[i] = 0
			order = append(order, i)
		}
	}
	for _, s := range spans {
		if _, ok := sums[s.parent]; ok && s.parent >= 0 && slices.Contains(names, s.name) {
			sums[s.parent] += float64(s.end - s.start)
		}
	}
	out := make([]float64, len(order))
	for k, i := range order {
		out[k] = sums[i]
	}
	return out
}

// byReq maps request id to duration for spans named name.
func byReq(spans []span, name string) map[int64]float64 {
	out := map[int64]float64{}
	for _, s := range spans {
		if s.name == name && s.req >= 0 {
			out[s.req] = float64(s.end - s.start)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the time its
// direct children cover (children of one span never overlap: they are
// recorded by the parent's own goroutine).
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// layerSummary is one span name's totals.
type layerSummary struct {
	name     string
	count    int
	totalNS  int64
	selfNS   int64
	medianNS float64
}

// summarize aggregates spans per name, sorted by name.
func summarize(spans []span) []layerSummary {
	self := selfTimes(spans)
	idx := map[string]int{}
	var out []layerSummary
	durs := map[string][]float64{}
	for i, s := range spans {
		k, ok := idx[s.name]
		if !ok {
			k = len(out)
			idx[s.name] = k
			out = append(out, layerSummary{name: s.name})
		}
		out[k].count++
		out[k].totalNS += s.end - s.start
		out[k].selfNS += self[i]
		durs[s.name] = append(durs[s.name], float64(s.end-s.start))
	}
	for i := range out {
		out[i].medianNS = median(durs[out[i].name])
	}
	sort.Slice(out, func(a, b int) bool { return out[a].name < out[b].name })
	return out
}

// writeSpans writes one JSON object per span to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range spans {
		rec := struct {
			ID     int    `json:"id"`
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			Parent int    `json:"parent"`
			Req    int64  `json:"req"`
		}{i, s.name, s.start, s.end, s.parent, s.req}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
