package rtl

// Source feeds a queue of flits into a wire, one per cycle, honouring
// backpressure.
type Source struct {
	Out   *Wire
	queue []Flit
	head  int // queue[:head] is consumed; rewound once drained
	// Sent counts flits pushed; StallCycles counts cycles blocked.
	Sent        uint64
	StallCycles uint64
}

// Feed appends flits to the source queue.
func (s *Source) Feed(f ...Flit) { s.queue = append(s.queue, f...) }

// FeedBytes packs p into flits of w bytes and appends them, marking SOF
// on the first and EOF on the last.
func (s *Source) FeedBytes(p []byte, w int) {
	for off := 0; off < len(p); off += w {
		end := min(off+w, len(p))
		f := FlitOf(p[off:end])
		f.SOF = off == 0
		f.EOF = end == len(p)
		s.Feed(f)
	}
}

// Pending reports how many flits remain queued.
func (s *Source) Pending() int { return len(s.queue) - s.head }

// Eval implements Module.
func (s *Source) Eval() {
	if s.head == len(s.queue) {
		return
	}
	if !s.Out.CanPush() {
		s.StallCycles++
		return
	}
	s.Out.Push(s.queue[s.head])
	s.head++
	if s.head == len(s.queue) {
		s.queue, s.head = s.queue[:0], 0
	}
	s.Sent++
}

// Sink drains a wire, recording every flit and the flattened byte stream.
type Sink struct {
	In    *Wire
	Flits []Flit
	Data  []byte
	// FirstCycle is the simulation cycle (counted by the sink itself)
	// at which the first flit arrived, LastCycle the most recent; -1
	// until then. FirstCycle is the pipeline's fill latency when the
	// source starts at cycle 0.
	FirstCycle int64
	LastCycle  int64
	// GapCounts histograms the inter-word gap (cycles between
	// consecutive arrivals): GapCounts[1] counts back-to-back words,
	// GapCounts[8] collects every gap of 8 or more. Index 0 is unused.
	// MaxGap is the largest gap observed. A gap above 1 is a delivery
	// bubble — the sink-side view of upstream stalls.
	GapCounts [9]uint64
	MaxGap    int64
	cycle     int64
}

// NewSink creates a sink on w.
func NewSink(w *Wire) *Sink { return &Sink{In: w, FirstCycle: -1, LastCycle: -1} }

// Eval implements Module.
func (s *Sink) Eval() {
	if f, ok := s.In.Take(); ok {
		if s.FirstCycle < 0 {
			s.FirstCycle = s.cycle
		} else {
			gap := s.cycle - s.LastCycle
			s.MaxGap = max(s.MaxGap, gap)
			s.GapCounts[min(gap, 8)]++
		}
		s.LastCycle = s.cycle
		s.Flits = append(s.Flits, f)
		s.Data = f.Bytes(s.Data)
	}
}

// Tick implements clocked.
func (s *Sink) Tick() { s.cycle++ }
