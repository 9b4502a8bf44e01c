package main

import (
	"encoding/json"
	"os"
	"time"
)

// spanID names a span; the harness records spans around the public
// calls into each layer, from outside the layer.
type spanID uint8

const (
	spanBatch spanID = iota // root: one batch of the workload's loop
	spanLinkSend
	spanLinkInput
	spanLinkDrain
	spanSonetMap
	spanSonetDemap
	spanFlush
	spanPoll
	spanWait
	spanEngineRun
	spanP5Send
	spanP5Run
	spanP5Drain
	spanVerify
	numSpans

	noParent spanID = 255
)

var spanNames = [numSpans]string{
	"batch", "link.send", "link.input", "link.drain",
	"sonet.map", "sonet.demap",
	"transport.flush", "transport.poll", "transport.wait",
	"engine.run", "p5.send", "p5.run", "p5.drain",
	"harness.verify",
}

// span is one timed interval. Spans of one batch share its number.
type span struct {
	batch        int32
	name, parent spanID
	start, end   int64 // ns since the tracer started
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing and reads no clock, so the untraced loop pays one predictable
// branch per call.
//
// Children tile their batch: mark closes a span that began where the
// previous one ended, so a batch with k children costs k+2 clock reads.
type tracer struct {
	t0    time.Time
	spans []span
	batch int32
	root  int64
	last  int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a batch.
func (t *tracer) begin() {
	if t == nil {
		return
	}
	t.root = t.now()
	t.last = t.root
}

// mark closes a child span named id, running from the previous mark (or
// begin) to now. Back-to-back marks of one name extend a single span,
// so a poll loop does not record a span per iteration.
func (t *tracer) mark(id spanID) {
	if t == nil {
		return
	}
	now := t.now()
	if n := len(t.spans); n > 0 {
		if p := &t.spans[n-1]; p.name == id && p.batch == t.batch && p.end == t.last {
			p.end, t.last = now, now
			return
		}
	}
	t.spans = append(t.spans, span{t.batch, id, spanBatch, t.last, now})
	t.last = now
}

// end closes the batch's root span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{t.batch, spanBatch, noParent, t.root, t.now()})
	t.batch++
}

// selfTimes returns, per span name, total duration minus the part of
// each span its children cover. A child is a span of the same batch
// whose parent is the span's name; spans of one batch must be adjacent
// in the slice (the tracer appends them that way).
func selfTimes(spans []span) (self [numSpans]int64) {
	for lo := 0; lo < len(spans); {
		hi := lo
		for hi < len(spans) && spans[hi].batch == spans[lo].batch {
			hi++
		}
		group := spans[lo:hi]
		for _, s := range group {
			self[s.name] += (s.end - s.start) - covered(s, group)
		}
		lo = hi
	}
	return self
}

// covered is the length of the union of s's children, clipped to s.
func covered(s span, group []span) int64 {
	var total int64
	// Children are few per batch; repeatedly take the earliest
	// uncovered child start instead of sorting.
	for cursor := s.start; cursor < s.end; {
		next := span{start: -1}
		for _, c := range group {
			if c.parent != s.name || c.name == s.name || c.end <= cursor || c.start >= s.end {
				continue
			}
			if next.start < 0 || c.start < next.start {
				next = c
			}
		}
		if next.start < 0 {
			return total
		}
		from := max(next.start, cursor)
		to := min(next.end, s.end)
		total += to - from
		cursor = to
	}
	return total
}

// durations returns the length of every span named id, in ns.
func durations(spans []span, id spanID) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == id {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

type spanJSON struct {
	Workload string `json:"workload"`
	Batch    int32  `json:"batch"`
	Name     string `json:"name"`
	Parent   string `json:"parent"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// writeSpans dumps the spans as one JSON array, once, at exit.
func writeSpans(path, workload string, spans []span) error {
	out := make([]spanJSON, len(spans))
	for i, s := range spans {
		parent := ""
		if s.parent != noParent {
			parent = spanNames[s.parent]
		}
		out[i] = spanJSON{workload, s.batch, spanNames[s.name], parent, s.start, s.end}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
