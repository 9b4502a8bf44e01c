// Package aps implements a 1+1 linear Automatic Protection Switching
// controller in the GR-253 §5.3 / ITU-T G.841 style: the survivability
// layer that pairs every working SONET line with a permanently bridged
// protect line and moves the receive selector between them in response
// to signal fail / signal degrade conditions, far-end requests, and
// external commands — without disturbing the PPP session riding the
// payload.
//
// Signalling uses the K1/K2 bytes of the line overhead on the
// protection line (carried by the sonet framer/deframer, which also
// applies the three-frame byte-persistence filter). K1 carries the
// highest-priority local request and the channel it concerns; K2
// carries the bridged channel and the architecture/mode indication.
// The controller is deterministic and clocked in virtual time: feed it
// line conditions (SetSignal), accepted far-end bytes (ReceiveK1K2)
// and external commands, then Advance(now) once per frame time.
package aps

import "fmt"

// Line identifies a member of the protected pair.
type Line int

// The two lines of a 1+1 group.
const (
	Working Line = 0
	Protect Line = 1
)

func (l Line) String() string {
	if l == Protect {
		return "protect"
	}
	return "working"
}

// Request is a K1 request code (the byte's upper nibble). The numeric
// value is the GR-253 priority: a higher code pre-empts a lower one.
type Request byte

// K1 request codes, ascending priority.
const (
	ReqNoRequest      Request = 0x0
	reqDoNotRevert    Request = 0x1
	ReqReverseRequest Request = 0x2
	reqExercise       Request = 0x4
	ReqWaitToRestore  Request = 0x6
	reqManualSwitch   Request = 0x8
	ReqSignalDegrade  Request = 0xA
	ReqSignalFail     Request = 0xC
	ReqForcedSwitch   Request = 0xE
	ReqLockout        Request = 0xF
)

func (r Request) String() string {
	switch r {
	case ReqNoRequest:
		return "no-request"
	case reqDoNotRevert:
		return "do-not-revert"
	case ReqReverseRequest:
		return "reverse-request"
	case reqExercise:
		return "exercise"
	case ReqWaitToRestore:
		return "wait-to-restore"
	case reqManualSwitch:
		return "manual"
	case ReqSignalDegrade:
		return "signal-degrade"
	case ReqSignalFail:
		return "signal-fail"
	case ReqForcedSwitch:
		return "forced"
	case ReqLockout:
		return "lockout"
	}
	return fmt.Sprintf("Request(%#x)", byte(r))
}

// K1 composes a K1 byte: request code in the upper nibble, the channel
// the request concerns in the lower (0 = null/working selected, 1 = the
// protected channel).
func K1(r Request, channel int) byte { return byte(r)<<4 | byte(channel&0x0F) }

// ParseK1 splits a K1 byte into request and channel.
func ParseK1(b byte) (Request, int) { return Request(b >> 4), int(b & 0x0F) }

// modeBidirectional is K2's provisioned-mode indication (lower three
// bits): every group here runs the bidirectional protocol.
const modeBidirectional = 0x5

// K2 composes a K2 byte: bridged channel in the upper nibble, the
// architecture bit (0 = 1+1) and the bidirectional mode below. In 1+1
// the bridge is permanent, so the bridged channel is always 1.
func K2(channel int) byte { return byte(channel&0x0F)<<4 | modeBidirectional }

// waitToRestore is the revertive hold time in frame times: after the
// working line heals, the selector stays on protection this long before
// it reverts. GR-253 uses 5–12 minutes; the simulation scales it to its
// frame-time clock.
const waitToRestore = 100

// SwitchEvent is one selector movement.
type SwitchEvent struct {
	Now      int64
	From, To Line
	// Trigger is the winning request that caused the movement.
	Trigger Request
	// Remote reports whether the trigger arrived in rx K1 rather than
	// from a local condition or command.
	Remote bool
	// Duration is the virtual time between the trigger condition first
	// asserting and this selector movement — the switch-completion time
	// the GR-253 50 ms budget bounds.
	Duration int64
}

func (e SwitchEvent) String() string {
	return fmt.Sprintf("%v->%v on %v @%d (took %d)", e.From, e.To, e.Trigger, e.Now, e.Duration)
}

// Stats is the controller's observable record.
type Stats struct {
	Switches   uint64 // selector movements
	ToProtect  uint64
	ToWorking  uint64
	RemoteWins uint64 // evaluations where the far-end request pre-empted
	// LastSwitchTook is the most recent SwitchEvent's Duration.
	LastSwitchTook int64
}

// extCmd is a latched external command.
type extCmd int

const (
	extNone extCmd = iota
	extLockout
	extForced
	extManual
)

// Controller is the per-group APS state machine of a bidirectional,
// revertive 1+1 group: an accepted far-end K1 request is evaluated
// against the local one and, when it wins, both selectors move and a
// Reverse-Request acknowledgement follows; after the working line heals
// and waitToRestore expires, the selector reverts to it. A new SF/SD
// condition is acted on at once (no hold-off).
type Controller struct {
	// OnSwitch observes every selector movement.
	OnSwitch func(SwitchEvent)

	Stats

	selected Line
	sf, sd   [2]bool
	condAt   [2]int64 // rising-edge time of the current SF/SD condition
	ext      extCmd
	extAt    int64
	wtrAt    int64 // wait-to-restore expiry; 0 = not running
	wtrDone  bool  // WTR already served for this restoral; don't re-arm
	rxK1     byte
	rxK2     byte
	rxAt     int64
	txK1     byte
	txK2     byte
	now      int64
}

// NewController returns a controller with the selector on the working
// line and no request active.
func NewController() *Controller {
	return &Controller{txK1: K1(ReqNoRequest, 0), txK2: K2(1)}
}

// Active returns the line the receive selector currently follows.
func (c *Controller) Active() Line { return c.selected }

// Now returns the virtual time of the latest Advance — the stamp an
// OAM-style host uses for commands issued outside the tick loop.
func (c *Controller) Now() int64 { return c.now }

// RxK1K2 returns the last accepted far-end pair.
func (c *Controller) RxK1K2() (k1, k2 byte) { return c.rxK1, c.rxK2 }

// TxK1K2 returns the K1/K2 pair to transmit on the protection line.
func (c *Controller) TxK1K2() (k1, k2 byte) { return c.txK1, c.txK2 }

// SetSignal reports the current SF/SD condition of one line, as
// integrated by that line's defect monitor (SF covers the whole
// service-affecting set; SD the degrade threshold). now stamps the
// rising edge for switch-duration accounting.
func (c *Controller) SetSignal(now int64, line Line, sf, sd bool) {
	i := int(line) & 1
	if (sf || sd) && !(c.sf[i] || c.sd[i]) {
		c.condAt[i] = now
	}
	c.sf[i], c.sd[i] = sf, sd
}

// ReceiveK1K2 delivers an accepted (persistence-filtered) far-end
// K1/K2 pair from the protection line's deframer.
func (c *Controller) ReceiveK1K2(now int64, k1, k2 byte) {
	if k1 != c.rxK1 {
		c.rxAt = now
	}
	c.rxK1, c.rxK2 = k1, k2
}

// Lockout locks the selector to the working line: protection is
// unavailable until Clear.
func (c *Controller) Lockout(now int64) { c.ext, c.extAt = extLockout, now }

// ForcedSwitch forces the selector to the protection line regardless of
// signal conditions (pre-empted only by lockout and SF on protection).
func (c *Controller) ForcedSwitch(now int64) { c.ext, c.extAt = extForced, now }

// ManualSwitch requests the protection line at a priority below SF/SD:
// a later defect on the protection line pre-empts it.
func (c *Controller) ManualSwitch(now int64) { c.ext, c.extAt = extManual, now }

// Clear removes any external command.
func (c *Controller) Clear() { c.ext = extNone }

// localRequest evaluates the highest-priority local condition, in the
// GR-253 order: lockout > SF on protection > forced > SF on working >
// SD on protection > SD on working > manual > wait-to-restore > no
// request. Channel 0 selects working, 1 protect.
func (c *Controller) localRequest(now int64) (Request, int, int64) {
	switch {
	case c.ext == extLockout:
		return ReqLockout, 0, c.extAt
	case c.sf[Protect]:
		return ReqSignalFail, 0, c.condAt[Protect]
	case c.ext == extForced:
		return ReqForcedSwitch, 1, c.extAt
	case c.sf[Working]:
		return ReqSignalFail, 1, c.condAt[Working]
	case c.sd[Protect]:
		return ReqSignalDegrade, 0, c.condAt[Protect]
	case c.sd[Working]:
		return ReqSignalDegrade, 1, c.condAt[Working]
	case c.ext == extManual:
		return reqManualSwitch, 1, c.extAt
	case c.wtrAt != 0:
		return ReqWaitToRestore, 1, c.condAt[Working]
	}
	return ReqNoRequest, 0, now
}

// Advance runs one evaluation pass at virtual time now: wait-to-restore
// bookkeeping, local-vs-remote request arbitration, selector update and
// K1/K2 generation. Call it once per frame time, after the tick's line
// observations have been fed in.
func (c *Controller) Advance(now int64) {
	c.now = now

	// Wait-to-restore: once the selector sits on
	// protection and the working line is healthy again, hold it there
	// for the WTR period, then release (the request evaluation below
	// then finds nothing and reverts). Any new working-line condition
	// or external command cancels the countdown. The timer runs once
	// per restoral — after expiry it must not re-arm while the far end
	// is still winding down its own revert, or the two ends keep each
	// other on protection with alternating WTR requests forever.
	workingClean := !c.sf[Working] && !c.sd[Working]
	restoring := c.selected == Protect && workingClean && c.ext == extNone
	if restoring {
		if c.wtrDone {
			// Served: nothing asserts; the selector reverts below as
			// soon as the far end stops requesting protection.
		} else if c.wtrAt == 0 {
			c.wtrAt = now + waitToRestore
		} else if now >= c.wtrAt {
			c.wtrAt, c.wtrDone = 0, true // expired: selector reverts below
		}
	} else {
		c.wtrAt, c.wtrDone = 0, false
	}
	// WTR released this pass: recompute with the request gone.
	req, ch, since := c.localRequest(now)
	if restoring && c.wtrAt == 0 && req == ReqWaitToRestore {
		req, ch, since = ReqNoRequest, 0, now
	}

	// Arbitration: an originating far-end request beats a
	// weaker local one (Reverse-Request is an acknowledgement, never an
	// originator). Ties resolve toward the null channel — selecting
	// working is the safe direction.
	remote := false
	rreq, rch := ParseK1(c.rxK1)
	if rreq != ReqReverseRequest {
		if rreq > req || (rreq == req && rch == 0) {
			if rreq > ReqNoRequest {
				req, ch, since = rreq, rch, c.rxAt
				remote = true
				c.RemoteWins++
			}
		}
	}

	// Selector position follows the winning request's channel; the
	// protection line is only usable when not failed and not locked out.
	target := Working
	if ch == 1 && req > ReqNoRequest && !c.sf[Protect] && c.ext != extLockout {
		target = Protect
	}
	if target != c.selected {
		e := SwitchEvent{
			Now: now, From: c.selected, To: target,
			Trigger: req, Remote: remote, Duration: now - since,
		}
		if e.Duration < 0 {
			e.Duration = 0
		}
		c.selected = target
		c.Switches++
		if target == Protect {
			c.ToProtect++
		} else {
			c.ToWorking++
		}
		c.LastSwitchTook = e.Duration
		if c.OnSwitch != nil {
			c.OnSwitch(e)
		}
	}

	// Transmit signalling: acknowledge a winning remote request with
	// Reverse-Request, otherwise signal the local verdict.
	if remote {
		c.txK1 = K1(ReqReverseRequest, ch)
	} else {
		c.txK1 = K1(req, ch)
	}
	c.txK2 = K2(1)
}
