package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Event is one structured trace record: a timestamped, scoped
// observation of a discrete occurrence (an LCP state transition, a
// SONET defect raise, a supervisor restart). The fixed shape keeps
// emission allocation-free; Detail is whatever short string the probe
// point already had on hand.
type Event struct {
	// Seq is the global emission sequence number (1-based, never
	// reused); gaps after a ring wrap are visible to consumers.
	Seq uint64 `json:"seq"`
	// At is the emitter's clock: simulation cycles for RTL probes,
	// virtual time units for the protocol stack.
	At int64 `json:"at"`
	// Scope names the emitting subsystem ("lcp:a", "supervisor", ...).
	Scope string `json:"scope"`
	// Name is the event type within the scope ("transition", "raise").
	Name string `json:"name"`
	// Detail is an optional human-readable attribute.
	Detail string `json:"detail,omitempty"`
	// V1, V2 carry up to two numeric attributes (state codes, backoff
	// intervals, defect masks) without formatting cost.
	V1 int64 `json:"v1,omitempty"`
	V2 int64 `json:"v2,omitempty"`
}

func (e Event) String() string {
	s := fmt.Sprintf("#%d @%d %s/%s", e.Seq, e.At, e.Scope, e.Name)
	if e.Detail != "" {
		s += " " + e.Detail
	}
	if e.V1 != 0 || e.V2 != 0 {
		s += fmt.Sprintf(" [%d %d]", e.V1, e.V2)
	}
	return s
}

// Tracer is a bounded ring buffer of Events. Emission never blocks and
// never allocates; when the ring is full the oldest event is
// overwritten, and the gap shows in the retained events' Seq against
// Total. Safe for concurrent use.
type Tracer struct {
	mu   sync.Mutex
	ring []Event
	seq  uint64 // events ever emitted
}

// NewTracer returns a tracer holding the most recent capacity events
// (minimum 16).
func NewTracer(capacity int) *Tracer {
	if capacity < 16 {
		capacity = 16
	}
	return &Tracer{ring: make([]Event, capacity)}
}

// Emit records one event.
func (t *Tracer) Emit(at int64, scope, name, detail string, v1, v2 int64) {
	t.mu.Lock()
	t.seq++
	t.ring[(t.seq-1)%uint64(len(t.ring))] = Event{
		Seq: t.seq, At: at, Scope: scope, Name: name, Detail: detail, V1: v1, V2: v2,
	}
	t.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := uint64(len(t.ring))
	if t.seq < n {
		return append([]Event(nil), t.ring[:t.seq]...)
	}
	out := make([]Event, 0, n)
	start := t.seq % n // oldest slot
	out = append(out, t.ring[start:]...)
	out = append(out, t.ring[:start]...)
	return out
}

// WriteJSON writes the retained events as a JSON array, oldest first —
// the /trace exposition format and the p5stat -replay input.
func (t *Tracer) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(t.Events())
}

// ReadEvents decodes a JSON event array previously written by
// WriteJSON.
func ReadEvents(r io.Reader) ([]Event, error) {
	var evs []Event
	if err := json.NewDecoder(r).Decode(&evs); err != nil {
		return nil, err
	}
	return evs, nil
}
