package sonet

// Deframer recovers the HDLC payload stream from a received STM-N octet
// stream: it hunts for the A1/A2 alignment pattern, descrambles,
// verifies B1/B3 parity against its own computation, and hands out the
// payload a row at a time.
//
// Frame sync is supervised by a DefectMonitor (GR-253-style): a single
// errored A1/A2 pattern no longer drops alignment — the frame is still
// delivered at the assumed boundary and only OOFBadFrames consecutive
// errored patterns fall back to the hunt, with LOS/LOF/SD/SF alarms
// raised along the way.
type Deframer struct {
	Level Level
	// Payload receives the recovered payload in order, a row per call, off
	// octets into its frame's payload (off == 0 opens a delivered frame).
	// p is the deframer's buffer: read-only, valid until the next frame
	// is descrambled — at the latest the next Feed.
	Payload func(p []byte, off int)
	// Defects supervises sync state and raises section/path alarms;
	// Feed needs one. NewDeframer installs a monitor with default
	// thresholds.
	Defects *DefectMonitor
	// OnAPS, when set, observes every accepted K1/K2 change: a new pair
	// is accepted only after arriving identically in apsAcceptFrames
	// consecutive frames (the GR-253 byte-persistence filter), so a
	// protection controller never acts on a corrupted signalling byte.
	OnAPS func(k1, k2 byte)

	stage   []byte // candidate frame accumulating across Feed calls; cap FrameBytes
	work    []byte // the descrambled frame being checked and handed out
	aligned bool

	// BIP-8 of the previous delivered frame, computed when it arrived:
	// raw section, clear line (rows 4-9), clear path.
	b1, b2, b3 byte
	// first frame after alignment cannot be parity-checked (no
	// previous frame).
	havePrev bool

	// APS byte-persistence filter state.
	k1Cand, k2Cand byte
	apsRun         int
	apsK1, apsK2   byte
	apsValid       bool

	// Counters.
	FramesOK      uint64
	FramesErrored uint64 // delivered in-frame despite an errored A1/A2
	B1Errors      uint64
	B2Errors      uint64 // line BIP mismatches (drive SD/SF declaration)
	B3Errors      uint64
	ResyncCount   uint64
}

// apsAcceptFrames is the K1/K2 persistence requirement: a value must
// repeat in this many consecutive frames before it is accepted.
const apsAcceptFrames = 3

// APSBytes returns the last accepted K1/K2 pair; ok is false until a
// pair has passed the persistence filter.
func (d *Deframer) APSBytes() (k1, k2 byte, ok bool) {
	return d.apsK1, d.apsK2, d.apsValid
}

// NewDeframer returns a deframer for the given level, supervised by a
// DefectMonitor with default thresholds. A non-nil emit is adapted to
// Payload for the frozen benchmark; everything else sets Payload.
func NewDeframer(level Level, emit func(byte)) *Deframer {
	d := &Deframer{Level: level, Defects: newDefectMonitor(level)}
	if emit != nil {
		d.Payload = func(p []byte, _ int) {
			for _, b := range p {
				emit(b)
			}
		}
	}
	return d
}

// Feed consumes received line octets in any chunking. Defect
// supervision and alignment run a frame-bounded span at a time; a whole
// aligned frame inside p is checked where it lies, without staging. p
// is only read.
func (d *Deframer) Feed(p []byte) {
	fb := d.Level.FrameBytes()
	if len(d.work) != fb {
		d.stage = make([]byte, 0, fb)
		d.work = make([]byte, fb)
	}
	for len(p) > 0 {
		n := fb - len(d.stage)
		if n > len(p) {
			n = len(p)
		}
		d.Defects.octets(p[:n])
		if d.aligned && n == fb {
			d.frame(p[:n])
			p = p[n:]
			continue
		}
		d.stage = append(d.stage, p[:n]...)
		p = p[n:]
		if !d.aligned {
			d.hunt()
		}
		if d.aligned && len(d.stage) == fb {
			raw := d.stage
			d.stage = d.stage[:0]
			d.frame(raw)
		}
	}
}

// hunt slides the staged octets to the first A1...A1 A2...A2 pattern.
// Without one it keeps only the tail that could still begin a pattern.
func (d *Deframer) hunt() {
	n := int(d.Level)
	need := 6 * n
	at := 0
	for ; len(d.stage)-at >= need; at++ {
		if matchAlignment(d.stage[at:], n) {
			// Everything from here is the start of a frame; keep any
			// octets already received beyond the alignment pattern.
			d.aligned = true
			d.ResyncCount++
			break
		}
	}
	d.stage = d.stage[:copy(d.stage, d.stage[at:])]
}

func matchAlignment(p []byte, n int) bool {
	for i := 0; i < 3*n; i++ {
		if p[i] != a1 {
			return false
		}
	}
	for i := 3 * n; i < 6*n; i++ {
		if p[i] != a2 {
			return false
		}
	}
	return true
}

// frame processes one frame-time of octets at the assumed alignment.
// raw is either the (already emptied) staging buffer or a span of the
// caller's slice; it is not modified.
func (d *Deframer) frame(raw []byte) {
	n := int(d.Level)
	row := d.Level.rowBytes()
	soh := d.Level.sohBytes()
	alignOK := matchAlignment(raw, n)

	// Descramble into the work buffer. Its first soh octets (row 0's
	// clear overhead, judged on raw above) are never read.
	frame := d.work
	xorStream(frame[soh:], raw[soh:], 0)

	// Parity checks against the previous frame. B1/B3 watch the section
	// and path; B2 watches the line and is what SD/SF declaration
	// integrates, feeding the APS SF/SD switch triggers.
	lineErr := false
	if d.havePrev {
		if frame[row+0] != d.b1 { // row 1, first overhead byte
			d.B1Errors++
		}
		if frame[apsRow*row] != d.b2 {
			d.B2Errors++
			lineErr = true
		}
		if frame[2*row+soh] != d.b3 {
			d.B3Errors++
		}
	}

	if !d.Defects.frameResultLine(alignOK, lineErr) {
		// Out of frame: drop back to hunting from the next octet — the
		// true boundary may sit inside this very frame after a slip.
		d.aligned = false
		d.havePrev = false
		d.stage = append(d.stage[:0], raw[1:]...)
		d.hunt()
		return
	}

	// This frame's own parity, checked against the bytes the next one
	// carries.
	d.b1 = bip8(raw)
	d.b2 = bip8(frame[lineStart(d.Level):])
	d.b3 = pathBIP(frame, d.Level)
	d.havePrev = true

	// APS signalling: K1/K2 from the line overhead, gated by the
	// persistence filter.
	d.observeAPS(frame[apsRow*row+1], frame[apsRow*row+2])

	// The payload: every row after its overhead and POH octet.
	if d.Payload != nil {
		rp := d.Level.rowPayload()
		for r := 0; r < rows; r++ {
			d.Payload(frame[(r+1)*row-rp:(r+1)*row], r*rp)
		}
	}
	if alignOK {
		d.FramesOK++
	} else {
		d.FramesErrored++
	}
}

// observeAPS runs the K1/K2 persistence filter over one frame's bytes.
func (d *Deframer) observeAPS(k1, k2 byte) {
	if k1 == d.k1Cand && k2 == d.k2Cand {
		if d.apsRun < apsAcceptFrames {
			d.apsRun++
		}
	} else {
		d.k1Cand, d.k2Cand = k1, k2
		d.apsRun = 1
	}
	if d.apsRun < apsAcceptFrames {
		return
	}
	if d.apsValid && k1 == d.apsK1 && k2 == d.apsK2 {
		return
	}
	d.apsK1, d.apsK2 = k1, k2
	d.apsValid = true
	if d.OnAPS != nil {
		d.OnAPS(k1, k2)
	}
}
