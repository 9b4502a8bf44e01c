package flight

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/telemetry"
)

// Capture file format ("p5fr", read by p5trace -capture):
//
//	header   "P5FR" ver=1 pad[3]
//	sections { type u16, flags u16, length u32, payload[length] }*
//
// all integers little-endian. Section types:
//
//	1 meta     seq u64, now i64, wallns i64, link str16, reason str16
//	2 wire     dir u8 (0 rx, 1 tx), pad[7], base u64, octets...
//	3 events   JSON event array (telemetry.Event encoding)
//	4 regs     count u32, { name str16, value u64 }*
//	5 incident incident u64, origin u8 (1 = peer-triggered), pad[7],
//	           peernow i64, peerwall i64, clockoff i64, tickoff i64
//
// str16 is u16 length + bytes. Unknown section types are skipped on
// decode, so the format is self-describing and forward-compatible —
// the incident section (distributed correlation, DESIGN.md §16) rides
// under version 1 for exactly that reason.
const (
	captureMagic   = "P5FR"
	captureVersion = 1

	secMeta     = 1
	secWire     = 2
	secEvents   = 3
	secRegs     = 4
	secIncident = 5
)

// RegSample is one named register value snapshotted into a capture.
type RegSample struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// Capture is one black-box dump: everything the recorder retained at
// the moment a trigger fired.
type Capture struct {
	// Link names the recorder that produced the dump.
	Link string
	// Reason is the trigger ("supervisor-restart", "aps-switch",
	// "defect-outage", "fcs-burst", "oam", ...).
	Reason string
	// Seq is the per-recorder capture sequence number (1-based).
	Seq uint64
	// Now is the link's virtual time at the dump.
	Now int64
	// WallNs is the wall clock at the dump, nanoseconds.
	WallNs int64
	// RxBase is the RX stream offset of RxWire[0]; RxWire holds the
	// most recent received raw HDLC octets.
	RxBase uint64
	RxWire []byte
	// TxBase/TxWire are the transmit section of the .p5fr layout. No
	// recorder has ever tapped transmit, so Trigger leaves them empty;
	// the codec still carries the section so every capture file loads.
	TxBase uint64
	TxWire []byte
	// Events is the retained black-box event ring, oldest first.
	Events []telemetry.Event
	// Regs are register snapshots contributed by the link and OAM.
	Regs []RegSample

	// Incident is the shared correlation ID stamped across the capture
	// pair a distributed trigger produces (0 = uncorrelated). The
	// correlation leader mints it; the peer adopts it from the freeze
	// ping.
	Incident uint64
	// FromPeer marks a capture whose trigger arrived over the wire (a
	// peer freeze ping) rather than from local detection.
	FromPeer bool
	// PeerNow/PeerWallNs are the peer's virtual time and wall clock at
	// its trigger, as carried by the freeze ping (0 when local).
	PeerNow    int64
	PeerWallNs int64
	// ClockOffsetNS is the transport's estimated peer-minus-local wall
	// clock offset at the dump, the p5trace -join alignment input.
	ClockOffsetNS int64
	// TickOffset is the estimated peer-minus-local virtual tick offset
	// (a lower bound from the max filter; 0 when unknown).
	TickOffset int64

	// Path is the on-disk location of the capture once WriteFile has
	// landed it (empty for in-memory captures). Not serialised; runners
	// surface it so a failing drill points straight at its black box.
	Path string
}

// Filename is the canonical capture file name:
// <link>-<seq>-<reason>.p5fr.
func (c *Capture) Filename() string {
	return fmt.Sprintf("%s-%05d-%s.p5fr", fileSafe(c.Link), c.Seq, fileSafe(c.Reason))
}

func fileSafe(s string) string {
	if s == "" {
		return "x"
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		ch := s[i]
		switch {
		case ch >= 'a' && ch <= 'z', ch >= 'A' && ch <= 'Z', ch >= '0' && ch <= '9', ch == '-', ch == '_', ch == '.':
			b.WriteByte(ch)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

type sectionWriter struct{ buf []byte }

func (w *sectionWriter) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *sectionWriter) pad(n int)    { w.buf = append(w.buf, make([]byte, n)...) }
func (w *sectionWriter) u16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *sectionWriter) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *sectionWriter) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *sectionWriter) i64(v int64)  { w.u64(uint64(v)) }
func (w *sectionWriter) str16(s string) {
	if len(s) > 0xFFFF {
		s = s[:0xFFFF]
	}
	w.u16(uint16(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *sectionWriter) section(typ uint16, payload []byte) {
	w.u16(typ)
	w.u16(0)
	w.u32(uint32(len(payload)))
	w.buf = append(w.buf, payload...)
}

// Encode serialises the capture into the p5fr byte format.
func (c *Capture) Encode() ([]byte, error) {
	var out sectionWriter
	out.buf = append(out.buf, captureMagic...)
	out.u8(captureVersion)
	out.pad(3)

	var meta sectionWriter
	meta.u64(c.Seq)
	meta.i64(c.Now)
	meta.i64(c.WallNs)
	meta.str16(c.Link)
	meta.str16(c.Reason)
	out.section(secMeta, meta.buf)

	wire := func(dir uint8, base uint64, octets []byte) {
		var w sectionWriter
		w.u8(dir)
		w.pad(7)
		w.u64(base)
		w.buf = append(w.buf, octets...)
		out.section(secWire, w.buf)
	}
	wire(0, c.RxBase, c.RxWire)
	if len(c.TxWire) > 0 {
		wire(1, c.TxBase, c.TxWire)
	}

	if len(c.Events) > 0 {
		js, err := json.Marshal(c.Events)
		if err != nil {
			return nil, fmt.Errorf("flight: encode events: %w", err)
		}
		out.section(secEvents, js)
	}

	if len(c.Regs) > 0 {
		var w sectionWriter
		w.u32(uint32(len(c.Regs)))
		for _, r := range c.Regs {
			w.str16(r.Name)
			w.u64(r.Value)
		}
		out.section(secRegs, w.buf)
	}

	if c.Incident != 0 || c.ClockOffsetNS != 0 || c.TickOffset != 0 {
		var w sectionWriter
		w.u64(c.Incident)
		origin := uint8(0)
		if c.FromPeer {
			origin = 1
		}
		w.u8(origin)
		w.pad(7)
		w.i64(c.PeerNow)
		w.i64(c.PeerWallNs)
		w.i64(c.ClockOffsetNS)
		w.i64(c.TickOffset)
		out.section(secIncident, w.buf)
	}
	return out.buf, nil
}

type sectionReader struct{ buf []byte }

// need compares unsigned: as an int, a length ≥ 2³¹ is negative on 386.
func (r *sectionReader) need(n uint32) bool { return uint64(len(r.buf)) >= uint64(n) }
func (r *sectionReader) u8() uint8          { v := r.buf[0]; r.buf = r.buf[1:]; return v }
func (r *sectionReader) skip(n int)         { r.buf = r.buf[n:] }
func (r *sectionReader) u16() uint16 {
	v := binary.LittleEndian.Uint16(r.buf)
	r.buf = r.buf[2:]
	return v
}
func (r *sectionReader) u32() uint32 {
	v := binary.LittleEndian.Uint32(r.buf)
	r.buf = r.buf[4:]
	return v
}
func (r *sectionReader) u64() uint64 {
	v := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}
func (r *sectionReader) str16() (string, error) {
	if !r.need(2) {
		return "", fmt.Errorf("flight: truncated string")
	}
	n := r.u16()
	if !r.need(uint32(n)) {
		return "", fmt.Errorf("flight: truncated string body")
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s, nil
}

// Decode parses a p5fr byte stream back into a Capture. Unknown
// section types are skipped.
func Decode(data []byte) (*Capture, error) {
	if len(data) < 8 || string(data[:4]) != captureMagic {
		return nil, fmt.Errorf("flight: not a p5fr capture (bad magic)")
	}
	if data[4] != captureVersion {
		return nil, fmt.Errorf("flight: unsupported capture version %d", data[4])
	}
	c := &Capture{}
	r := sectionReader{buf: data[8:]}
	for len(r.buf) > 0 {
		if !r.need(8) {
			return nil, fmt.Errorf("flight: truncated section header")
		}
		typ := r.u16()
		r.u16() // flags
		n := r.u32()
		if !r.need(n) {
			return nil, fmt.Errorf("flight: truncated section %d (%d of %d bytes)", typ, len(r.buf), n)
		}
		body := sectionReader{buf: r.buf[:n]}
		r.skip(int(n))
		switch typ {
		case secMeta:
			if !body.need(24) {
				return nil, fmt.Errorf("flight: short meta section")
			}
			c.Seq = body.u64()
			c.Now = int64(body.u64())
			c.WallNs = int64(body.u64())
			var err error
			if c.Link, err = body.str16(); err != nil {
				return nil, err
			}
			if c.Reason, err = body.str16(); err != nil {
				return nil, err
			}
		case secWire:
			if !body.need(16) {
				return nil, fmt.Errorf("flight: short wire section")
			}
			dir := body.u8()
			body.skip(7)
			base := body.u64()
			octets := append([]byte(nil), body.buf...)
			if dir == 0 {
				c.RxBase, c.RxWire = base, octets
			} else {
				c.TxBase, c.TxWire = base, octets
			}
		case secEvents:
			if err := json.Unmarshal(body.buf, &c.Events); err != nil {
				return nil, fmt.Errorf("flight: decode events: %w", err)
			}
		case secRegs:
			if !body.need(4) {
				return nil, fmt.Errorf("flight: short regs section")
			}
			n := body.u32()
			for i := uint32(0); i < n; i++ {
				name, err := body.str16()
				if err != nil {
					return nil, err
				}
				if !body.need(8) {
					return nil, fmt.Errorf("flight: truncated register value")
				}
				c.Regs = append(c.Regs, RegSample{Name: name, Value: body.u64()})
			}
		case secIncident:
			if !body.need(48) {
				return nil, fmt.Errorf("flight: short incident section")
			}
			c.Incident = body.u64()
			c.FromPeer = body.u8() == 1
			body.skip(7)
			c.PeerNow = int64(body.u64())
			c.PeerWallNs = int64(body.u64())
			c.ClockOffsetNS = int64(body.u64())
			c.TickOffset = int64(body.u64())
		}
	}
	return c, nil
}

// WriteFile writes the capture into dir under its canonical Filename,
// atomically: the encoding lands in a temp file first and is renamed
// into place, so a reader never observes a torn capture.
func (c *Capture) WriteFile(dir string) error {
	data, err := c.Encode()
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".p5fr-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	dst := filepath.Join(dir, c.Filename())
	if err := os.Rename(tmp.Name(), dst); err != nil {
		return err
	}
	c.Path = dst
	return nil
}

// ReadFile loads and decodes a capture file.
func ReadFile(path string) (*Capture, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}
