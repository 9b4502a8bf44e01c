package obsnet

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"repro/internal/flight"
	"repro/internal/telemetry"
)

// joinedEvent is one event of the merged incident timeline: a black-box
// event from either side with its tick aligned into side A's domain.
type joinedEvent struct {
	// Side is "A" or "B".
	Side string
	// AlignedAt is the event's tick translated into A's tick domain.
	AlignedAt int64
	// Event is the original event (Event.At stays in its own domain).
	Event telemetry.Event
}

// Joined is a correlated capture pair merged into one two-sided
// incident view.
type Joined struct {
	Incident uint64
	A, B     *flight.Capture
	// TickDelta is the estimated B-minus-A tick offset used for
	// alignment: an event at B-tick t happened around A-tick t-TickDelta.
	TickDelta int64
	// ClockDeltaNS is the estimated B-minus-A wall-clock offset.
	ClockDeltaNS int64
	// Timeline holds both sides' events sorted by aligned tick.
	Timeline []joinedEvent
}

// tickDelta estimates the B-minus-A tick offset. Each side's TickOffset
// is its own peer-minus-local estimate, so A's is B−A directly and B's
// is A−B (negate). When both sides estimated, average them; the two
// lower bounds bracket the truth from the same side, so the midpoint
// just splits their staleness.
func tickDelta(a, b *flight.Capture) int64 {
	switch {
	case a.TickOffset != 0 && b.TickOffset != 0:
		return (a.TickOffset - b.TickOffset) / 2
	case a.TickOffset != 0:
		return a.TickOffset
	default:
		return -b.TickOffset
	}
}

func clockDelta(a, b *flight.Capture) int64 {
	switch {
	case a.ClockOffsetNS != 0 && b.ClockOffsetNS != 0:
		return (a.ClockOffsetNS - b.ClockOffsetNS) / 2
	case a.ClockOffsetNS != 0:
		return a.ClockOffsetNS
	default:
		return -b.ClockOffsetNS
	}
}

// Join merges a correlated capture pair into one timeline. The captures
// must share a nonzero incident ID — that is the proof they describe
// the same outage; anything else is an error, not a guess.
func Join(a, b *flight.Capture) (*Joined, error) {
	if a.Incident == 0 || b.Incident == 0 {
		return nil, fmt.Errorf("obsnet: capture not incident-correlated (incidents %#x / %#x)", a.Incident, b.Incident)
	}
	if a.Incident != b.Incident {
		return nil, fmt.Errorf("obsnet: captures belong to different incidents (%#x vs %#x)", a.Incident, b.Incident)
	}
	j := &Joined{
		Incident:     a.Incident,
		A:            a,
		B:            b,
		TickDelta:    tickDelta(a, b),
		ClockDeltaNS: clockDelta(a, b),
	}
	for _, e := range a.Events {
		j.Timeline = append(j.Timeline, joinedEvent{Side: "A", AlignedAt: e.At, Event: e})
	}
	for _, e := range b.Events {
		j.Timeline = append(j.Timeline, joinedEvent{Side: "B", AlignedAt: e.At - j.TickDelta, Event: e})
	}
	sort.SliceStable(j.Timeline, func(i, k int) bool {
		return j.Timeline[i].AlignedAt < j.Timeline[k].AlignedAt
	})
	return j, nil
}

// WriteTimeline renders the joined incident: the pair's identity block
// followed by the two-sided event timeline in A's tick domain.
func (j *Joined) WriteTimeline(w io.Writer) error {
	fmt.Fprintf(w, "incident %016x\n", j.Incident)
	side := func(tag string, c *flight.Capture) {
		origin := "local-trigger"
		if c.FromPeer {
			origin = "peer-triggered"
		}
		fmt.Fprintf(w, "  %s %s  reason=%s  seq=%d  at=%d  %s  events=%d\n",
			tag, c.Link, c.Reason, c.Seq, c.Now, origin, len(c.Events))
	}
	side("A:", j.A)
	side("B:", j.B)
	fmt.Fprintf(w, "  alignment: tick delta (B-A) %+d, clock delta %+d ns\n\n", j.TickDelta, j.ClockDeltaNS)

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "side\tat(A)\tscope\tevent\tdetail\t")
	for _, e := range j.Timeline {
		detail := e.Event.Detail
		if e.Event.V1 != 0 || e.Event.V2 != 0 {
			detail = fmt.Sprintf("%s [%d %d]", detail, e.Event.V1, e.Event.V2)
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\t\n", e.Side, e.AlignedAt, e.Event.Scope, e.Event.Name, detail)
	}
	return tw.Flush()
}
