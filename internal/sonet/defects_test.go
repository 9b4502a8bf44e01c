package sonet

import (
	"fmt"
	"testing"
)

// mon returns an STM-1 monitor.
func mon() *DefectMonitor { return newDefectMonitor(STM1) }

// FrameResult is frameResultLine with a single parity verdict.
func (m *DefectMonitor) FrameResult(alignOK, parityErr bool) (inFrame bool) {
	return m.frameResultLine(alignOK, parityErr)
}

func TestOOFNeedsConsecutiveErroredFrames(t *testing.T) {
	m := mon()
	// Three errored patterns, then a good one: no OOF (hysteresis).
	for i := 0; i < 3; i++ {
		if !m.FrameResult(false, false) {
			t.Fatalf("dropped sync on errored frame %d", i)
		}
	}
	m.FrameResult(true, false)
	if m.has(DefOOF) {
		t.Fatal("OOF after a non-consecutive run")
	}
	// Four consecutive errored patterns: OOF declared, sync dropped.
	for i := 0; i < 3; i++ {
		m.FrameResult(false, false)
	}
	if in := m.FrameResult(false, false); in {
		t.Fatal("kept sync after 4 consecutive errored frames")
	}
	if !m.has(DefOOF) {
		t.Fatal("OOF not raised")
	}
	// Two consecutive good patterns re-enter the in-frame state.
	m.FrameResult(true, false)
	if !m.has(DefOOF) {
		t.Fatal("OOF cleared after one good frame")
	}
	m.FrameResult(true, false)
	if m.has(DefOOF) {
		t.Fatal("OOF not cleared after two good frames")
	}
	if m.Raises(DefOOF) != 1 || m.Clears(DefOOF) != 1 {
		t.Errorf("OOF raises/clears = %d/%d", m.Raises(DefOOF), m.Clears(DefOOF))
	}
}

func TestLOFPersistenceTimer(t *testing.T) {
	m := mon()
	fb := STM1.FrameBytes()
	// Enter OOF.
	for i := 0; i < oofBadFrames; i++ {
		m.FrameResult(false, false)
	}
	junk := make([]byte, fb)
	for i := range junk {
		junk[i] = 0x42 // live line, just misframed
	}
	// One frame time short of the persistence timer: LOF not yet.
	for i := 0; i < lofFrames-1; i++ {
		m.octets(junk)
	}
	if m.has(DefLOF) {
		t.Fatal("LOF before the persistence timer")
	}
	m.octets(junk)
	if !m.has(DefLOF) {
		t.Fatalf("LOF not raised after %d frame times in OOF", lofFrames)
	}
	// Recover framing; LOF must persist until the clear timer runs.
	for i := 0; i < oofGoodFrames; i++ {
		m.FrameResult(true, false)
	}
	if m.has(DefOOF) {
		t.Fatal("OOF still active")
	}
	if !m.has(DefLOF) {
		t.Fatal("LOF cleared instantly")
	}
	for i := 0; i < lofFrames-1; i++ {
		m.octets(junk)
	}
	if !m.has(DefLOF) {
		t.Fatal("LOF cleared before the in-frame persistence timer")
	}
	m.octets(junk)
	if m.has(DefLOF) {
		t.Fatal("LOF not cleared after in-frame persistence")
	}
}

func TestLOSZeroRun(t *testing.T) {
	m := mon()
	los := m.losOctets()
	if los != STM1.FrameBytes()/8 {
		t.Fatalf("STM-1 LOS threshold %d, want an eighth of a frame", los)
	}
	m.octets(make([]byte, los-1))
	if m.has(DefLOS) {
		t.Fatal("LOS before threshold")
	}
	m.octets(make([]byte, 1))
	if !m.has(DefLOS) {
		t.Fatalf("LOS not raised at %d zero octets", los)
	}
	m.octets([]byte{0xF6})
	if m.has(DefLOS) {
		t.Fatal("LOS not cleared on live line")
	}
	if m.Raises(DefLOS) != 1 || m.Clears(DefLOS) != 1 {
		t.Errorf("LOS raises/clears = %d/%d", m.Raises(DefLOS), m.Clears(DefLOS))
	}
	// A zero run interrupted by live octets never raises.
	for i := 0; i < 10; i++ {
		m.octets(make([]byte, los-2))
		m.octets([]byte{0x28})
	}
	if m.Raises(DefLOS) != 1 {
		t.Error("interrupted zero runs raised LOS")
	}
}

func TestSignalDegradeAndFailThresholds(t *testing.T) {
	m := mon()
	// A window with sdFrames parity-errored frames: SD but not SF.
	for i := 0; i < windowFrames; i++ {
		m.FrameResult(true, i < sdFrames)
	}
	if !m.has(DefSD) || m.has(DefSF) {
		t.Fatalf("after degrade window: %v", m.Active())
	}
	// One errored frame short of the fail threshold: still SD alone.
	for i := 0; i < windowFrames; i++ {
		m.FrameResult(true, i < sfFrames-1)
	}
	if !m.has(DefSD) || m.has(DefSF) {
		t.Fatalf("after a window just short of fail: %v", m.Active())
	}
	// A window with sfFrames errored: SF joins.
	for i := 0; i < windowFrames; i++ {
		m.FrameResult(true, i < sfFrames)
	}
	if !m.has(DefSD) || !m.has(DefSF) {
		t.Fatalf("after fail window: %v", m.Active())
	}
	// A window just under the degrade threshold clears both.
	for i := 0; i < windowFrames; i++ {
		m.FrameResult(true, i < sdFrames-1)
	}
	if m.has(DefSD) || m.has(DefSF) {
		t.Fatalf("after a window under the degrade threshold: %v", m.Active())
	}
}

func TestDefectEventsAndStrings(t *testing.T) {
	m := mon()
	var events []DefectEvent
	m.OnEvent = func(e DefectEvent) { events = append(events, e) }
	los := m.losOctets()
	m.octets(make([]byte, 2*los))
	m.octets([]byte{1})
	if len(events) != 2 {
		t.Fatalf("events = %v", events)
	}
	if !events[0].Raised || events[0].Defect != DefLOS || events[0].Octet != int64(los) {
		t.Errorf("event 0 = %v", events[0])
	}
	if events[1].Raised || events[1].Defect != DefLOS || events[1].Octet != int64(2*los+1) {
		t.Errorf("event 1 = %v", events[1])
	}
	if got := events[0].String(); got != fmt.Sprintf("raise LOS @%d", los) {
		t.Errorf("event string %q", got)
	}
	if (DefLOS | DefOOF).String() != "LOS+OOF" {
		t.Errorf("String = %q", (DefLOS | DefOOF).String())
	}
	if Defect(0).String() != "none" {
		t.Errorf("zero String = %q", Defect(0).String())
	}
	if r, c := m.Raises(DefLOS), m.Clears(DefLOS); r != 1 || c != 1 {
		t.Errorf("LOS transitions = %d/%d", r, c)
	}
}

// TestDeframerSurvivesSingleErroredPattern is the hysteresis payoff: a
// corrupted A1 byte no longer costs a whole frame of payload.
func TestDeframerSurvivesSingleErroredPattern(t *testing.T) {
	payload := make([]byte, 8000)
	for i := range payload {
		payload[i] = byte(i%251) + 1
	}
	got, df := pump(t, STM1, payload, 4, func(f []byte, i int) {
		if i == 1 {
			f[0] ^= 0xFF // destroy the first A1 byte
		}
	})
	if df.FramesErrored != 1 {
		t.Fatalf("FramesErrored = %d", df.FramesErrored)
	}
	if df.Defects.has(DefOOF) {
		t.Fatal("OOF from a single errored pattern")
	}
	// All payload delivered: the errored frame's octets were kept.
	if len(got) < len(payload) {
		t.Fatalf("delivered %d of %d payload octets", len(got), len(payload))
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("payload octet %d corrupted", i)
		}
	}
}

// TestDeframerByteSlipRaisesOOFAndRecovers injects a one-octet deletion
// mid-stream: the deframer must integrate the errored patterns, declare
// OOF, re-hunt, and clear the defect after realignment.
func TestDeframerByteSlipRaisesOOFAndRecovers(t *testing.T) {
	ramp := make([]byte, 12*STM1.PayloadBytes())
	for i := range ramp {
		ramp[i] = byte((i+1)%250) + 1
	}
	fr := streamFramer(STM1, ramp)
	df := NewDeframer(STM1, nil)
	df.Feed(fr.NextFrame())
	// Delete one octet from the next frame: everything downstream slips.
	f := fr.NextFrame()
	df.Feed(f[1:])
	for i := 0; i < 10; i++ {
		df.Feed(fr.NextFrame())
	}
	if !df.aligned {
		t.Fatal("did not realign after slip")
	}
	if df.Defects.Raises(DefOOF) != 1 || df.Defects.Clears(DefOOF) != 1 {
		t.Errorf("OOF raises/clears = %d/%d",
			df.Defects.Raises(DefOOF), df.Defects.Clears(DefOOF))
	}
	if df.Defects.Active() != 0 {
		t.Errorf("defects still active: %v", df.Defects.Active())
	}
	if df.ResyncCount < 2 {
		t.Errorf("ResyncCount = %d", df.ResyncCount)
	}
}

// TestDeframerLOSWindow feeds a dead line mid-stream: LOS (and, as the
// outage persists, OOF then LOF) must raise, then clear after the light
// comes back.
func TestDeframerLOSWindow(t *testing.T) {
	fr := constFramer(STM1, 0x42)
	df := NewDeframer(STM1, nil)
	for i := 0; i < 3; i++ {
		df.Feed(fr.NextFrame())
	}
	// Long enough a dead line to integrate OOF and then LOF.
	df.Feed(make([]byte, (oofBadFrames+lofFrames+2)*STM1.FrameBytes()))
	if !df.Defects.has(DefLOS) {
		t.Fatal("LOS not raised on dead line")
	}
	if !df.Defects.has(DefOOF) || !df.Defects.has(DefLOF) {
		t.Fatalf("outage defects = %v", df.Defects.Active())
	}
	// Light back: resync, then the LOF clear timer and a clean parity
	// window clear everything.
	for i := 0; i < lofFrames+windowFrames+4; i++ {
		df.Feed(fr.NextFrame())
	}
	if df.Defects.Active() != 0 {
		t.Fatalf("defects after recovery: %v", df.Defects.Active())
	}
	if df.Defects.Raises(DefLOS) != 1 || df.Defects.Raises(DefLOF) != 1 {
		t.Errorf("raises LOS=%d LOF=%d",
			df.Defects.Raises(DefLOS), df.Defects.Raises(DefLOF))
	}
}
