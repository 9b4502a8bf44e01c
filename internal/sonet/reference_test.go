package sonet

// The byte-at-a-time framer, deframer and line-rate defect observer as
// they stood before the word-wide rebuild, kept test-only as the oracle
// the production path is compared against: one octet per loop
// iteration, eight LFSR shifts per scrambled octet, full previous-frame
// copies for B1/B3, and the defect monitor stepped once per octet.

import "repro/internal/hdlc"

func refBip8(p []byte) byte {
	var b byte
	for _, x := range p {
		b ^= x
	}
	return b
}

func refScramble(p []byte) {
	var s scrambler
	s.reset()
	for i := range p {
		p[i] ^= s.next()
	}
}

type refFramer struct {
	Level  Level
	Pull   func() (byte, bool)
	K1, K2 byte

	prevFrame []byte
	prevPath  []byte
	prevB2    byte

	FramesBuilt uint64
	FillOctets  uint64
}

func (f *refFramer) NextFrame() []byte {
	n := int(f.Level)
	row := colsPerSTM1 * n
	soh := sohCols * n
	frame := make([]byte, f.Level.FrameBytes())

	pathStart := soh
	var path []byte
	for r := 0; r < rows; r++ {
		base := r * row
		switch r {
		case 0:
			for i := 0; i < 3*n; i++ {
				frame[base+i] = a1
			}
			for i := 3 * n; i < 6*n; i++ {
				frame[base+i] = a2
			}
		case 1:
			frame[base] = refBip8(f.prevFrame)
		case 3:
			frame[base] = 0x6A
			frame[base+1] = 0x0A
		case 4:
			frame[base] = f.prevB2
			frame[base+1] = f.K1
			frame[base+2] = f.K2
		}
		var poh byte
		switch r {
		case 0:
			poh = 0x01
		case 2:
			poh = refBip8(f.prevPath)
		case 4:
			poh = c2ppp
		}
		frame[base+pathStart] = poh
		for c := pathStart + 1; c < row; c++ {
			b, ok := byte(hdlc.Flag), false
			if f.Pull != nil {
				b, ok = f.Pull()
			}
			if !ok {
				b = hdlc.Flag
				f.FillOctets++
			}
			frame[base+c] = b
		}
		path = append(path, frame[base+pathStart:base+row]...)
	}
	f.prevPath = path
	f.prevB2 = refBip8(frame[3*row:])
	refScramble(frame[soh:])
	f.prevFrame = append(f.prevFrame[:0], frame...)
	f.FramesBuilt++
	return frame
}

// refOctetIn steps the defect monitor by one line octet.
func refOctetIn(m *DefectMonitor, b byte) {
	m.octet++
	if b == 0 {
		m.zeroRun++
		if m.zeroRun == m.losOctets() {
			m.raise(DefLOS)
		}
	} else {
		if m.has(DefLOS) {
			m.clearDef(DefLOS)
		}
		m.zeroRun = 0
	}
	lof := int64(lofFrames) * int64(m.Level.FrameBytes())
	if m.has(DefOOF) {
		m.oofOct++
		if !m.has(DefLOF) && m.oofOct >= lof {
			m.raise(DefLOF)
		}
	} else {
		m.inOct++
		if m.has(DefLOF) && m.inOct >= lof {
			m.clearDef(DefLOF)
		}
	}
}

// refDeframer shares the production Deframer's counters, APS filter and
// DefectMonitor frame-level state machine (none of which were rebuilt);
// its octet loop, hunt, descrambling and parity bookkeeping are the old
// ones.
type refDeframer struct {
	Deframer
	// The per-octet hooks the production deframer had before it handed
	// out row spans.
	Emit    func(b byte)
	OnFrame func()

	buf       []byte
	prevFrame []byte
	prevPath  []byte
	prevB2    byte
}

func newRefDeframer(level Level, emit func(byte)) *refDeframer {
	return &refDeframer{Deframer: Deframer{Level: level, Defects: newDefectMonitor(level)}, Emit: emit}
}

func (d *refDeframer) Feed(p []byte) {
	for _, b := range p {
		if d.Defects != nil {
			refOctetIn(d.Defects, b)
		}
		d.buf = append(d.buf, b)
		if !d.aligned {
			d.hunt()
			continue
		}
		if len(d.buf) == d.Level.FrameBytes() {
			raw := d.buf
			d.buf = nil
			d.frame(raw)
		}
	}
}

func (d *refDeframer) hunt() {
	n := int(d.Level)
	need := 6 * n
	for len(d.buf) >= need {
		if matchAlignment(d.buf, n) {
			d.aligned = true
			d.ResyncCount++
			return
		}
		d.buf = d.buf[1:]
	}
}

func (d *refDeframer) frame(raw []byte) {
	n := int(d.Level)
	row := colsPerSTM1 * n
	soh := sohCols * n
	alignOK := matchAlignment(raw, n)

	frame := append([]byte(nil), raw...)
	refScramble(frame[soh:])

	lineErr := false
	if d.havePrev {
		if frame[row+0] != refBip8(d.prevFrame) {
			d.B1Errors++
		}
		if frame[apsRow*row] != d.prevB2 {
			d.B2Errors++
			lineErr = true
		}
		if frame[2*row+soh] != refBip8(d.prevPath) {
			d.B3Errors++
		}
	}

	inFrame := alignOK
	if d.Defects != nil {
		inFrame = d.Defects.frameResultLine(alignOK, lineErr)
	}
	if !inFrame {
		d.aligned = false
		d.havePrev = false
		d.buf = append([]byte(nil), raw[1:]...)
		d.hunt()
		return
	}

	d.observeAPS(frame[apsRow*row+1], frame[apsRow*row+2])
	if d.OnFrame != nil {
		d.OnFrame()
	}

	var path []byte
	for r := 0; r < rows; r++ {
		base := r * row
		path = append(path, frame[base+soh:base+row]...)
		for c := soh + 1; c < row; c++ {
			if d.Emit != nil {
				d.Emit(frame[base+c])
			}
		}
	}
	d.prevPath = path
	d.prevFrame = append(d.prevFrame[:0], raw...)
	d.prevB2 = refBip8(frame[3*row:])
	d.havePrev = true
	if alignOK {
		d.FramesOK++
	} else {
		d.FramesErrored++
	}
}
