package p5

import (
	"sync"
	"sync/atomic"

	"repro/internal/aps"
	"repro/internal/crc"
	"repro/internal/flight"
	"repro/internal/hdlc"
	"repro/internal/ppp"
	"repro/internal/sonet"
)

// Register addresses of the Protocol OAM block — the microprocessor
// interface through which a host programs the P5 and reads its status.
// All registers are 32 bits wide at word-aligned addresses.
const (
	RegCtrl    = 0x00 // control bits (see the RegCtrl bits below)
	RegAddress = 0x04 // HDLC address octet (programmable, MAPOS)
	regControl = 0x08 // HDLC control octet
	regACCM    = 0x0C // async-control-character map
	RegFCSMode = 0x10 // 2 = FCS-16, 4 = FCS-32
	regMRU     = 0x14 // maximum receive unit

	RegIntStat = 0x20 // interrupt status (write 1 to clear)
	RegIntMask = 0x24 // interrupt enable mask
	RegAlarm   = 0x28 // live SONET section/path defect bits (RO)

	regTxFrames   = 0x40 // frames transmitted (RO)
	regTxEscaped  = 0x44 // octets escaped on transmit (RO)
	regTxStalls   = 0x48 // transmit backpressure stalls (RO)
	RegRxGood     = 0x4C // good frames received (RO)
	RegRxBad      = 0x50 // bad frames received (RO)
	RegRxFCSErr   = 0x54 // FCS failures (RO)
	RegRxAborts   = 0x58 // aborted frames (RO)
	regRxOverruns = 0x5C // line overrun octets (RO)
	RegRxRunts    = 0x60 // runt frames (RO)

	RegDefectRaise = 0x64 // total defect raise transitions (RO)
	RegDefectClear = 0x68 // total defect clear transitions (RO)
	RegB1Errors    = 0x6C // section BIP-8 errors (RO, needs section)
	RegB3Errors    = 0x70 // path BIP-8 errors (RO, needs section)
	RegResyncs     = 0x74 // frame-alignment reacquisitions (RO)

	regCntOverflow = 0x78 // sticky per-counter overflow latch (write 1 to clear)

	regB2Errors = 0x7C // line BIP-8 errors (RO, needs section)

	// 1+1 APS protection block (AttachAPS).
	regAPSCtrl     = 0x80 // external switch commands (see apsCmd*)
	RegAPSState    = 0x84 // bit 0: selected line; bits 4-7: tx K1 request
	RegAPSRx       = 0x88 // accepted far-end K1<<8 | K2 (RO)
	RegAPSTx       = 0x8C // transmitted K1<<8 | K2 (RO)
	RegAPSSwitches = 0x90 // selector movements (RO, saturating)

	// Flight recorder / SLO block (AttachFlight).
	RegFlightCtrl = 0x94 // write bit 0: dump the black box now; read: capture count
	regSLOBurn    = 0x98 // worst SLO burn rate in milli-units; bit 31 = alarm (RO)

	// Performance observatory block (AttachProfiler).
	regProfCtrl = 0x9C // write bit 0: snapshot runtime profiles now; read: dump count
)

// regAPSCtrl command encodings (lower two bits of a host write).
const (
	apsCmdClear   = 0 // release any latched external command
	apsCmdLockout = 1 // lock the selector to the working line
	apsCmdForced  = 2 // force the selector to the protection line
	apsCmdManual  = 3 // request protection below the SF/SD priorities
)

// regCntOverflow bit assignments: the status counters above are 16-bit
// hardware fields. Reading a counter whose live value exceeds 0xFFFF
// returns the saturated value and latches the counter's bit here. The
// latch is sticky — cleared by writing 1, but re-asserted by the next
// read while the counter remains saturated.
const (
	ovfTxFrames   = uint32(1) << 0
	ovfTxEscaped  = uint32(1) << 1
	ovfTxStalls   = uint32(1) << 2
	ovfRxGood     = uint32(1) << 3
	ovfRxBad      = uint32(1) << 4
	ovfRxFCSErr   = uint32(1) << 5
	ovfRxAborts   = uint32(1) << 6
	ovfRxOverruns = uint32(1) << 7
	ovfRxRunts    = uint32(1) << 8
	ovfB1Errors   = uint32(1) << 9
	ovfB3Errors   = uint32(1) << 10
	ovfResyncs    = uint32(1) << 11
	ovfB2Errors   = uint32(1) << 12
	ovfAPSSwitch  = uint32(1) << 13
)

// RegAlarm's bit assignments are the sonet.Defect bit set.

// RegCtrl bits.
const (
	ctrlTxEnable    = 1 << 0
	ctrlRxEnable    = 1 << 1
	CtrlLoopback    = 1 << 2
	ctrlSharedFlags = 1 << 3
	ctrlIdleFill    = 1 << 4
	ctrlAnyAddress  = 1 << 5
)

// Interrupt bits (RegIntStat / RegIntMask).
const (
	intRxFrame = 1 << 0 // a frame reached the receive queue
	intRxError = 1 << 1 // a damaged frame was disposed of
	intTxDone  = 1 << 2 // transmit queue drained

	// SONET section/path defect interrupt causes (AttachSection).
	IntOOF         = 1 << 3 // out-of-frame declared
	IntLOF         = 1 << 4 // loss-of-frame declared
	IntLOS         = 1 << 5 // loss-of-signal declared
	IntSDeg        = 1 << 6 // signal degrade threshold crossed
	IntSFail       = 1 << 7 // signal fail threshold crossed
	intDefectClear = 1 << 8 // any defect cleared (alarm register updated)
	IntAPSSwitch   = 1 << 9 // protection selector moved (AttachAPS)

	IntFlightDump = 1 << 10 // the flight recorder dumped a capture (AttachFlight)
	IntSLOBurn    = 1 << 11 // an SLO burn-rate alarm was raised (AttachFlight)
	IntProfDump   = 1 << 12 // a runtime profile snapshot was written (AttachProfiler)
)

// IntCauseNames maps interrupt bits to their mnemonic, for status dumps.
var IntCauseNames = []struct {
	Bit  uint32
	Name string
}{
	{intRxFrame, "rx-frame"}, {intRxError, "rx-error"}, {intTxDone, "tx-done"},
	{IntOOF, "oof"}, {IntLOF, "lof"}, {IntLOS, "los"},
	{IntSDeg, "sdeg"}, {IntSFail, "sfail"}, {intDefectClear, "defect-clear"},
	{IntAPSSwitch, "aps-switch"},
	{IntFlightDump, "flight-dump"}, {IntSLOBurn, "slo-burn"},
	{IntProfDump, "prof-dump"},
}

// Regs is the OAM configuration register file. The datapath samples it
// once per clock (see config), so a host write takes effect on the next
// clock — the system programmability the paper claims. The zero value is
// usable but disabled; NewRegs returns the reset defaults.
type Regs struct {
	mu sync.RWMutex
	// gen counts host writes to the registers config samples. It is
	// bumped under mu, and read without it by the per-clock check.
	gen     atomic.Uint32
	ctrl    uint32
	address byte
	control byte
	accm    hdlc.ACCM
	fcsMode crc.Size
	mru     int

	intStat uint32
	intMask uint32

	// SONET section alarm state (AttachSection).
	alarm        uint32
	defectRaises uint32
	defectClears uint32

	// cntOvf is the regCntOverflow latch. It is atomic rather than
	// mu-guarded because reads of saturated status counters latch
	// bits while holding only the read lock.
	cntOvf atomic.Uint32
}

// NewRegs returns the power-on register file: Tx/Rx enabled, address
// 0xFF, control 0x03, ACCM 0 (octet-synchronous link), FCS-32, MRU 1500.
func NewRegs() *Regs {
	return &Regs{
		ctrl:    ctrlTxEnable | ctrlRxEnable,
		address: ppp.AddrAllStations,
		control: ppp.CtrlUI,
		accm:    hdlc.ACCMNone,
		fcsMode: crc.FCS32Mode,
		mru:     ppp.DefaultMRU,
	}
}

// config is one clock's sample of the registers the datapath reads: the
// control bits, the escape map, the FCS size, and the address, control
// and MRU a frame's head is built and policed with. Whoever drives the
// clock (System, Pair, or a Framer or RxControl running on a bare Sim)
// owns one, refreshes it with Regs.sample before the clock's first Eval,
// and every unit of that clock works from the same values — a frame never
// mixes two writes, and takes no lock of its own.
type config struct {
	sampled bool
	gen     uint32
	ctrl    uint32
	accm    hdlc.ACCM
	fcs     crc.Size
	control byte
	rx      ppp.Config // address, AnyAddress, FCS size and MRU as received
}

// sample brings c up to date and reports whether it changed. With no
// host write since the last sample — every clock but a handful — it is
// one atomic load; otherwise the registers are copied under the lock, so
// c never mixes two writes' worth of state.
func (r *Regs) sample(c *config) bool {
	if c.sampled && r.gen.Load() == c.gen {
		return false
	}
	r.mu.RLock()
	*c = config{sampled: true, gen: r.gen.Load(), ctrl: r.ctrl, accm: r.accm, fcs: r.fcsMode, control: r.control,
		rx: ppp.Config{Address: r.address, AnyAddress: r.ctrl&ctrlAnyAddress != 0, FCS: r.fcsMode, MRU: r.mru}}
	r.mu.RUnlock()
	return true
}

// clockSample is a unit's hold on its clock's register sample: cfg
// points at the System's or Pair's when one drives the clock; on a bare
// Sim it stays nil and the unit samples its Regs into own.
type clockSample struct {
	cfg *config
	own config
}

// get returns the clock's sample.
func (c *clockSample) get(r *Regs) *config {
	if c.cfg == nil {
		r.sample(&c.own)
		return &c.own
	}
	return c.cfg
}

// stat16 narrows a live datapath counter to its 16-bit status register
// field: values above 0xFFFF saturate (instead of silently wrapping)
// and latch the counter's sticky bit in regCntOverflow. Callers hold
// only the read lock, hence the CAS loop on the atomic latch.
func (r *Regs) stat16(v uint64, bit uint32) uint32 {
	if v <= 0xFFFF {
		return uint32(v)
	}
	for {
		old := r.cntOvf.Load()
		if old&bit != 0 || r.cntOvf.CompareAndSwap(old, old|bit) {
			return 0xFFFF
		}
	}
}

// raiseInt sets interrupt status bits.
func (r *Regs) raiseInt(bits uint32) {
	r.mu.Lock()
	r.intStat |= bits
	r.mu.Unlock()
}

// IRQ reports whether any unmasked interrupt is pending.
func (r *Regs) IRQ() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.intStat&r.intMask != 0
}

// OAM is the Protocol OAM block: it exposes the register map to a host
// microprocessor (Read/Write) and snapshots live datapath counters into
// the read-only status registers.
type OAM struct {
	Regs *Regs

	// Counter taps, wired by the System assembly.
	tx *Transmitter
	rx *Receiver

	// section, when attached, supplies the SONET defect/parity status
	// registers.
	section *sonet.Deframer
	// aps, when attached, supplies the protection status registers and
	// accepts regAPSCtrl commands.
	aps *aps.Controller
	// flight/slo, when attached, supply the RegFlightCtrl/regSLOBurn
	// block and the flight-dump / slo-burn interrupt causes.
	flight *flight.Recorder
	slo    *flight.SLO
	// profiler, when attached, services regProfCtrl dump requests;
	// profDumps counts the successful ones for regProfCtrl reads.
	profiler  func() error
	profDumps atomic.Uint32
}

// defectIntBit maps a defect raise to its interrupt cause.
func defectIntBit(d sonet.Defect) uint32 {
	switch d {
	case sonet.DefOOF:
		return IntOOF
	case sonet.DefLOF:
		return IntLOF
	case sonet.DefLOS:
		return IntLOS
	case sonet.DefSD:
		return IntSDeg
	case sonet.DefSF:
		return IntSFail
	}
	return 0
}

// AttachSection wires a SONET deframer into the OAM block: its defect
// transitions drive the alarm register and raise per-defect interrupt
// causes, and its parity/resync counters appear in the status block.
// Pass the deframer whose Emit feeds this P5's receive path.
func (o *OAM) AttachSection(df *sonet.Deframer) {
	o.section = df
	if df == nil {
		return
	}
	prev := df.Defects.OnEvent
	df.Defects.OnEvent = func(e sonet.DefectEvent) {
		r := o.Regs
		r.mu.Lock()
		r.alarm = uint32(df.Defects.Active())
		if e.Raised {
			r.defectRaises++
			r.intStat |= defectIntBit(e.Defect)
		} else {
			r.defectClears++
			r.intStat |= intDefectClear
		}
		r.mu.Unlock()
		if prev != nil {
			prev(e)
		}
	}
}

// AttachAPS wires a 1+1 protection controller into the OAM block: the
// host reads selector/request/signalling state from the RegAPS*
// registers, issues lockout/forced/manual commands through regAPSCtrl,
// and every completed selector movement raises the IntAPSSwitch cause
// (chained ahead of any existing OnSwitch subscriber).
func (o *OAM) AttachAPS(c *aps.Controller) {
	o.aps = c
	if c == nil {
		return
	}
	prev := c.OnSwitch
	c.OnSwitch = func(e aps.SwitchEvent) {
		o.Regs.raiseInt(IntAPSSwitch)
		if prev != nil {
			prev(e)
		}
	}
}

// AttachFlight wires a flight recorder (and optionally its SLO
// evaluator; s may be nil) into the OAM block: every black-box dump
// raises the IntFlightDump cause, every SLO burn-rate alarm raises
// IntSLOBurn, the host triggers a dump by writing bit 0 of
// RegFlightCtrl, and RegFlightCtrl/regSLOBurn read back the capture
// count and worst burn rate. Hooks chain ahead of any existing
// subscriber, matching AttachAPS.
func (o *OAM) AttachFlight(rec *flight.Recorder, s *flight.SLO) {
	o.flight = rec
	o.slo = s
	if rec != nil {
		prev := rec.OnCapture
		rec.OnCapture = func(c *flight.Capture) {
			o.Regs.raiseInt(IntFlightDump)
			if prev != nil {
				prev(c)
			}
		}
	}
	if s != nil {
		prev := s.OnAlarm
		s.OnAlarm = func(objective string) {
			o.Regs.raiseInt(IntSLOBurn)
			if prev != nil {
				prev(objective)
			}
		}
	}
}

// AttachProfiler wires a runtime profile dumper into the OAM block:
// the host writes bit 0 of regProfCtrl to snapshot heap/mutex/block/
// goroutine profiles on demand (p5sim -prof wires this to
// prof.WriteSnapshot), each successful dump raises the IntProfDump
// cause, and regProfCtrl reads back the dump count.
func (o *OAM) AttachProfiler(dump func() error) {
	o.profiler = dump
}

// Alarms returns the live alarm register as a defect set.
func (o *OAM) Alarms() sonet.Defect {
	o.Regs.mu.RLock()
	defer o.Regs.mu.RUnlock()
	return sonet.Defect(o.Regs.alarm)
}

// Write stores a host write to a configuration register. Writes to
// unknown or read-only addresses are ignored (hardware-style).
func (o *OAM) Write(addr uint32, v uint32) {
	r := o.Regs
	if addr == RegFlightCtrl {
		// Handled before taking the register lock: the dump path
		// re-enters raiseInt through the capture hook, and the mutex is
		// not reentrant.
		if v&1 != 0 && o.flight != nil {
			o.flight.Trigger("oam")
		}
		return
	}
	if addr == regProfCtrl {
		// Before the lock for the same reason: raiseInt re-takes it.
		if v&1 != 0 && o.profiler != nil && o.profiler() == nil {
			o.profDumps.Add(1)
			o.Regs.raiseInt(IntProfDump)
		}
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	switch addr {
	case RegCtrl:
		r.ctrl = v
		r.gen.Add(1)
	case RegAddress:
		r.address = byte(v)
		r.gen.Add(1)
	case regControl:
		r.control = byte(v)
		r.gen.Add(1)
	case regACCM:
		r.accm = hdlc.ACCM(v)
		r.gen.Add(1)
	case RegFCSMode:
		if v == 2 {
			r.fcsMode = crc.FCS16Mode
		} else {
			r.fcsMode = crc.FCS32Mode
		}
		r.gen.Add(1)
	case regMRU:
		r.mru = int(v & 0xFFFF)
		r.gen.Add(1)
	case RegIntStat:
		r.intStat &^= v // write-1-to-clear
	case RegIntMask:
		r.intMask = v
	case regCntOverflow:
		for { // write-1-to-clear; CAS because reads latch lock-free
			old := r.cntOvf.Load()
			if r.cntOvf.CompareAndSwap(old, old&^v) {
				break
			}
		}
	case regAPSCtrl:
		if o.aps != nil {
			now := o.aps.Now()
			switch v & 3 {
			case apsCmdClear:
				o.aps.Clear()
			case apsCmdLockout:
				o.aps.Lockout(now)
			case apsCmdForced:
				o.aps.ForcedSwitch(now)
			case apsCmdManual:
				o.aps.ManualSwitch(now)
			}
		}
	}
}

// Read returns the value of a register, pulling live counters from the
// datapath for the status block.
func (o *OAM) Read(addr uint32) uint32 {
	r := o.Regs
	r.mu.RLock()
	defer r.mu.RUnlock()
	switch addr {
	case RegCtrl:
		return r.ctrl
	case RegAddress:
		return uint32(r.address)
	case regControl:
		return uint32(r.control)
	case regACCM:
		return uint32(r.accm)
	case RegFCSMode:
		return uint32(r.fcsMode)
	case regMRU:
		return uint32(r.mru)
	case RegIntStat:
		return r.intStat
	case RegIntMask:
		return r.intMask
	case RegAlarm:
		return r.alarm
	case RegDefectRaise:
		return r.defectRaises
	case RegDefectClear:
		return r.defectClears
	case regCntOverflow:
		return r.cntOvf.Load()
	}
	if o.section != nil {
		switch addr {
		case RegB1Errors:
			return r.stat16(o.section.B1Errors, ovfB1Errors)
		case RegB3Errors:
			return r.stat16(o.section.B3Errors, ovfB3Errors)
		case RegResyncs:
			return r.stat16(o.section.ResyncCount, ovfResyncs)
		case regB2Errors:
			return r.stat16(o.section.B2Errors, ovfB2Errors)
		}
	}
	if o.aps != nil {
		txK1, txK2 := o.aps.TxK1K2()
		switch addr {
		case RegAPSState:
			req, _ := aps.ParseK1(txK1)
			return uint32(o.aps.Active())&1 | uint32(req)<<4
		case RegAPSRx:
			rxK1, rxK2 := o.aps.RxK1K2()
			return uint32(rxK1)<<8 | uint32(rxK2)
		case RegAPSTx:
			return uint32(txK1)<<8 | uint32(txK2)
		case RegAPSSwitches:
			return r.stat16(o.aps.Switches, ovfAPSSwitch)
		}
	}
	if o.flight != nil && addr == RegFlightCtrl {
		return uint32(o.flight.Captures())
	}
	if o.profiler != nil && addr == regProfCtrl {
		return o.profDumps.Load()
	}
	if o.slo != nil && addr == regSLOBurn {
		burn := o.slo.WorstBurnMilli()
		if burn > 0x7FFFFFFF {
			burn = 0x7FFFFFFF
		}
		v := uint32(burn)
		if o.slo.Alarmed() {
			v |= 1 << 31
		}
		return v
	}
	if o.tx != nil {
		switch addr {
		case regTxFrames:
			return r.stat16(o.tx.CRC.Frames, ovfTxFrames)
		case regTxEscaped:
			return r.stat16(o.tx.Escape.Escaped, ovfTxEscaped)
		case regTxStalls:
			return r.stat16(o.tx.Escape.InputStalls, ovfTxStalls)
		}
	}
	if o.rx != nil {
		switch addr {
		case RegRxGood:
			return r.stat16(o.rx.Control.Good, ovfRxGood)
		case RegRxBad:
			return r.stat16(o.rx.Control.Bad, ovfRxBad)
		case RegRxFCSErr:
			return r.stat16(o.rx.CRC.FCSErrors, ovfRxFCSErr)
		case RegRxAborts:
			return r.stat16(o.rx.Delineator.Aborts, ovfRxAborts)
		case regRxOverruns:
			return r.stat16(o.rx.Delineator.Overruns, ovfRxOverruns)
		case RegRxRunts:
			return r.stat16(o.rx.Control.Runts, ovfRxRunts)
		}
	}
	return 0
}
