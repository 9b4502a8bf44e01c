package sonet

import "repro/internal/hdlc"

// Framer builds transmit STM-N frames around a byte-synchronous HDLC
// payload stream. Fill supplies the payload a row at a time; whatever it
// leaves unwritten the framer fills with HDLC flags, because the
// synchronous payload envelope can never pause.
type Framer struct {
	Level Level
	// Fill copies up to len(dst) queued HDLC line octets into dst, the
	// payload row off octets into the frame's payload, and returns the
	// count. dst is the framer's buffer and is not kept. The rest of the
	// row (all of it under a nil Fill) is flag fill, counted in FillOctets.
	Fill func(dst []byte, off int) int

	// K1 and K2 are the APS signalling bytes carried in the line
	// overhead (row 5 of the transport frame, next to B2). A protection
	// controller rewrites them between frames; zero is "no request".
	K1, K2 byte

	frame      []byte // the one transmit buffer NextFrame rebuilds and returns
	b1, b2, b3 byte   // BIP-8 of the previous frame: scrambled section, clear line, clear path

	FramesBuilt uint64
	FillOctets  uint64
}

// NewFramer returns a framer for the given level. A non-nil pull is the
// frozen benchmark's adapter to Fill: called exactly once per payload
// octet (the benchmark counts them), ok == false meaning flag fill.
func NewFramer(level Level, pull func() (byte, bool)) *Framer {
	f := &Framer{Level: level}
	if pull != nil {
		f.Fill = func(dst []byte, _ int) int {
			for i := range dst {
				b, ok := pull()
				if !ok {
					b = hdlc.Flag
					f.FillOctets++
				}
				dst[i] = b
			}
			return len(dst)
		}
	}
	return f
}

// NextFrame builds one complete scrambled transport frame, asking Fill
// for each of its nine payload rows in order. The returned slice is the
// framer's own buffer: it is valid (and may be modified, e.g. by an
// in-place error injector) until the next call to NextFrame, which
// overwrites it. A caller that keeps a frame longer must copy it.
func (f *Framer) NextFrame() []byte {
	n := int(f.Level)
	row := f.Level.rowBytes()
	soh := f.Level.sohBytes()
	if len(f.frame) != f.Level.FrameBytes() {
		f.frame = make([]byte, f.Level.FrameBytes())
	}
	frame := f.frame

	rp := f.Level.rowPayload()
	for r := 0; r < rows; r++ {
		line := frame[r*row : (r+1)*row]
		// --- Section/line overhead and the path overhead octet ---
		// Unused overhead is zero; the buffer still holds the previous
		// (scrambled) frame.
		clear(line[:soh+1])
		switch r {
		case 0:
			// A1 ×3N then A2 ×3N, then unused overhead.
			for i := 0; i < 3*n; i++ {
				line[i] = a1
			}
			for i := 3 * n; i < 6*n; i++ {
				line[i] = a2
			}
			line[soh] = 0x01 // J1 trace (constant)
		case 1:
			// B1: section BIP-8 over the previous scrambled frame.
			line[0] = f.b1
		case 2:
			// B3: path BIP-8 over the previous frame's POH + payload.
			line[soh] = f.b3
		case 3:
			// H1/H2 pointer: concatenation, zero offset. The standard
			// encoding is 0x6A/0x0A for the first STM-1 and the
			// concatenation indication for the rest; a fixed marker
			// is sufficient for the byte-synchronous mapping.
			line[0] = 0x6A
			line[1] = 0x0A
		case apsRow:
			// B2: line BIP-8 over the previous frame's line overhead
			// and payload (everything below the section overhead rows),
			// then the K1/K2 APS signalling channel.
			line[0] = f.b2
			line[1] = f.K1
			line[2] = f.K2
			line[soh] = c2ppp
		}
		// --- Payload: the rest of the row carries the HDLC stream ---
		payload := line[row-rp:]
		if f.Fill != nil {
			payload = payload[f.Fill(payload, r*rp):]
		}
		f.FillOctets += uint64(len(payload))
		// One flag, doubled up to the end of the row.
		for n := copy(payload, []byte{hdlc.Flag}); n < len(payload); n *= 2 {
			copy(payload[n:], payload[:n])
		}
	}
	// The parity bytes the NEXT frame carries: B3 over this frame's path
	// and B2 over its rows 4-9 before scrambling, B1 over all of it after.
	f.b3 = pathBIP(frame, f.Level)
	f.b2 = bip8(frame[lineStart(f.Level):])

	// Scramble everything except the first row of section overhead: one
	// word-wide XOR with the frame-synchronous sequence.
	// Note: the standard leaves only the A1/A2 (and J0/Z0) bytes of row
	// 0 unscrambled; we leave the whole first 9·N overhead octets clear
	// so the alignment hunt is exact.
	xorStream(frame[soh:], frame[soh:], 0)
	f.b1 = bip8(frame)
	f.FramesBuilt++
	return frame
}
