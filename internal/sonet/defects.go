package sonet

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// This file adds GR-253-style defect supervision to the SONET section:
// instead of a stateless hunt that drops alignment on the first errored
// A1/A2 pattern, the deframer drives a DefectMonitor that models sync
// acquisition and loss as a state machine with integration timers —
// out-of-frame after consecutive errored framing patterns, loss-of-frame
// after a persistence timer, loss-of-signal on a dead line, and
// signal-degrade/fail alarms from measured B2 line parity rates. A supervisor (the
// host behind the P5 OAM block, or a software Link) consumes the
// resulting transitions.

// Defect is a bit set of active section/path defects.
type Defect uint32

// The modelled defects.
const (
	// DefOOF: out of frame — oofBadFrames consecutive errored A1/A2
	// patterns. The deframer re-hunts while OOF is active.
	DefOOF Defect = 1 << iota
	// DefLOF: loss of frame — OOF persisted lofFrames frame times.
	DefLOF
	// DefLOS: loss of signal — losOctets consecutive zero octets (a
	// dead line; scrambling guarantees a live line is never all-zeros).
	DefLOS
	// DefSD: signal degrade — B2 line-parity errored-frame rate over a
	// window crossed the degrade threshold.
	DefSD
	// DefSF: signal fail — line errored-frame rate crossed the fail
	// threshold.
	DefSF
)

var defectNames = []struct {
	bit  Defect
	name string
}{
	{DefLOS, "LOS"}, {DefLOF, "LOF"}, {DefOOF, "OOF"},
	{DefSF, "SF"}, {DefSD, "SD"},
}

func (d Defect) String() string {
	if d == 0 {
		return "none"
	}
	var parts []string
	for _, n := range defectNames {
		if d&n.bit != 0 {
			parts = append(parts, n.name)
		}
	}
	if rest := d &^ (DefOOF | DefLOF | DefLOS | DefSD | DefSF); rest != 0 {
		parts = append(parts, fmt.Sprintf("%#x", uint32(rest)))
	}
	return strings.Join(parts, "+")
}

// ServiceAffecting is the defect set that makes the line unusable: a
// supervisor should treat these as loss of the physical layer.
const ServiceAffecting = DefLOS | DefLOF | DefSF

// DefectEvent is one alarm transition.
type DefectEvent struct {
	Octet  int64 // line octet index at the transition
	Defect Defect
	Raised bool // true = raise, false = clear
}

func (e DefectEvent) String() string {
	verb := "clear"
	if e.Raised {
		verb = "raise"
	}
	return fmt.Sprintf("%s %v @%d", verb, e.Defect, e.Octet)
}

// The integration thresholds, GR-253's defaults. LOS, a zero run of an
// eighth of a transport frame, scales with the level: losOctets.
const (
	// oofBadFrames consecutive errored A1/A2 patterns declare OOF;
	// oofGoodFrames consecutive clean ones re-enter the in-frame state.
	oofBadFrames, oofGoodFrames = 4, 2
	// lofFrames frame times spent in OOF declare LOF; the same span
	// in-frame clears it (≈ 3 ms).
	lofFrames = 24
	// windowFrames is the B2 evaluation window (2 ms); sdFrames /
	// sfFrames errored frames within it raise signal degrade / fail. A
	// window below a threshold clears its defect.
	windowFrames, sdFrames, sfFrames = 16, 4, 12
)

// DefectMonitor integrates framing, parity and signal observations into
// alarm state. The Deframer drives it; hosts read Active or subscribe
// via OnEvent.
type DefectMonitor struct {
	Level Level
	// OnEvent, when set, observes every transition as it happens.
	OnEvent func(DefectEvent)

	active Defect

	octet   int64
	zeroRun int
	badRun  int
	goodRun int
	oofOct  int64 // octets spent in OOF (LOF integration)
	inOct   int64 // octets spent in-frame (LOF clearing)
	winFrm  int
	winErr  int
	raises  [5]uint64
	clears  [5]uint64
}

// newDefectMonitor returns a monitor for level.
func newDefectMonitor(level Level) *DefectMonitor {
	return &DefectMonitor{Level: level}
}

// losOctets is the LOS threshold: consecutive zero octets for one eighth
// of a transport frame (≈ 15 µs), at least 16; any nonzero octet clears.
func (m *DefectMonitor) losOctets() int {
	return max(m.Level.FrameBytes()/8, 16)
}

// Active returns the current defect set.
func (m *DefectMonitor) Active() Defect { return m.active }

// has reports whether defect d is currently active.
func (m *DefectMonitor) has(d Defect) bool { return m.active&d != 0 }

// Raises returns how many times defect d has been raised.
func (m *DefectMonitor) Raises(d Defect) uint64 { return m.raises[bitIndex(d)] }

// Clears returns how many times defect d has been cleared.
func (m *DefectMonitor) Clears(d Defect) uint64 { return m.clears[bitIndex(d)] }

func bitIndex(d Defect) int {
	for i := 0; i < 5; i++ {
		if d&(1<<uint(i)) != 0 {
			return i
		}
	}
	return 0
}

func (m *DefectMonitor) raise(d Defect) {
	if m.active&d != 0 {
		return
	}
	m.active |= d
	m.raises[bitIndex(d)]++
	m.event(DefectEvent{Octet: m.octet, Defect: d, Raised: true})
}

func (m *DefectMonitor) clearDef(d Defect) {
	if m.active&d == 0 {
		return
	}
	m.active &^= d
	m.clears[bitIndex(d)]++
	m.event(DefectEvent{Octet: m.octet, Defect: d, Raised: false})
}

func (m *DefectMonitor) event(e DefectEvent) {
	if m.OnEvent != nil {
		m.OnEvent(e)
	}
}

// octets observes raw line octets: the LOS zero-run detector and the
// LOF integration timers run at line rate. The Deframer calls it with
// spans that end at each frame boundary, interleaved with FrameResult,
// so the LOF persistence timer integrates correctly even when a whole
// outage arrives in one chunk.
//
// OOF only changes in FrameResult, so it is constant across p and the
// LOF timer can cross its threshold at most once inside it, at an
// offset known up front; only the zero-run detector looks at the octets.
func (m *DefectMonitor) octets(p []byte) {
	// timer is the integrator running in this sync state; the LOF
	// transition, if one is pending, fires on the octet that brings it
	// to the threshold.
	oof := m.has(DefOOF)
	timer := &m.inOct
	if oof {
		timer = &m.oofOct
	}
	if m.has(DefLOF) != oof {
		at := int64(lofFrames)*int64(m.Level.FrameBytes()) - *timer
		if at < 1 {
			at = 1
		}
		if at <= int64(len(p)) {
			m.scanLOS(p[:at])
			if oof {
				m.raise(DefLOF)
			} else {
				m.clearDef(DefLOF)
			}
			*timer += at
			p = p[at:]
		}
	}
	m.scanLOS(p)
	*timer += int64(len(p))
}

// scanLOS runs the zero-run detector over p and advances the octet
// index. A machine word that is all live or all dead and cannot cross
// the LOS threshold is skipped whole; every transition goes through
// losOctet, so it is logged at the exact octet that caused it.
func (m *DefectMonitor) scanLOS(p []byte) {
	thresh := m.losOctets()
	for len(p) >= 8 {
		w := binary.LittleEndian.Uint64(p)
		switch {
		case !hasZeroOctet(w) && !m.has(DefLOS): // a live line, nothing to clear
			m.zeroRun = 0
			m.octet += 8
		case w == 0 && (m.zeroRun >= thresh || m.zeroRun+8 < thresh):
			m.zeroRun += 8
			m.octet += 8
		default:
			for _, b := range p[:8] {
				m.losOctet(b, thresh)
			}
		}
		p = p[8:]
	}
	for _, b := range p {
		m.losOctet(b, thresh)
	}
}

// hasZeroOctet reports whether any of the eight octets of w is zero.
func hasZeroOctet(w uint64) bool {
	const lsb, msb = 0x0101010101010101, 0x8080808080808080
	return (w-lsb)&^w&msb != 0
}

// losOctet is the zero-run detector's definition, one octet at a time.
func (m *DefectMonitor) losOctet(b byte, thresh int) {
	m.octet++
	if b != 0 {
		m.clearDef(DefLOS)
		m.zeroRun = 0
		return
	}
	m.zeroRun++
	if m.zeroRun == thresh {
		m.raise(DefLOS)
	}
}

// frameResultLine observes one frame-time's framing and parity verdicts
// and returns whether the deframer should keep frame sync: false means
// OOF is active and this frame's alignment was errored — fall back to
// the hunt. A single errored pattern inside an otherwise good run keeps
// sync (the in-frame hysteresis), so its payload is still delivered.
//
// lineErr is the measured B2 line parity verdict, and is what the
// SD/SF declaration window integrates — signal degrade and signal fail
// are line-layer defects, and they are the triggers a 1+1 APS
// controller switches on. B1/B3 errors are the deframer's counters
// alone.
func (m *DefectMonitor) frameResultLine(alignOK, lineErr bool) (inFrame bool) {
	if alignOK {
		m.goodRun++
		m.badRun = 0
		if m.has(DefOOF) && m.goodRun >= oofGoodFrames {
			m.clearDef(DefOOF)
			m.inOct = 0
		}
	} else {
		m.badRun++
		m.goodRun = 0
		if !m.has(DefOOF) && m.badRun >= oofBadFrames {
			m.raise(DefOOF)
			m.oofOct = 0
		}
	}

	m.winFrm++
	if lineErr {
		m.winErr++
	}
	if m.winFrm >= windowFrames {
		errs := m.winErr
		m.winFrm, m.winErr = 0, 0
		if errs >= sfFrames {
			m.raise(DefSF)
		} else {
			m.clearDef(DefSF)
		}
		if errs >= sdFrames {
			m.raise(DefSD)
		} else {
			m.clearDef(DefSD)
		}
	}
	return alignOK || !m.has(DefOOF)
}
