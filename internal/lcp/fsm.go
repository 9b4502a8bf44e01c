package lcp

import (
	"fmt"

	"repro/internal/rtt"
)

// State is an RFC 1661 §4.2 automaton state.
type State int

// The ten automaton states.
const (
	initial State = iota
	Starting
	closed
	Stopped
	closing
	stopping
	reqSent
	ackRcvd
	ackSent
	Opened
)

var stateNames = [...]string{
	"Initial", "Starting", "Closed", "Stopped", "Closing",
	"Stopping", "Req-Sent", "Ack-Rcvd", "Ack-Sent", "Opened",
}

func (s State) String() string {
	if s >= 0 && int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Restart parameters: RFC 1661 §4.6's defaults.
const (
	maxConfigure = 10
	maxTerminate = 2
	maxFailure   = 5
)

// Policy supplies the protocol-specific option semantics to the generic
// automaton. LCP and the NCPs (package ipcp) differ only in their Policy.
type Policy interface {
	// LocalOptions returns the options for the next Configure-Request.
	LocalOptions() []Option
	// CheckRequest examines a peer Configure-Request. Empty returns
	// mean every option is acceptable (ack). Otherwise rejs lists
	// unrecognised/forbidden options and naks lists recognised options
	// with counter-proposed values.
	CheckRequest(opts []Option) (naks, rejs []Option)
	// PeerAcked notifies the policy that the peer acknowledged our
	// request containing opts.
	PeerAcked(opts []Option)
	// HandleNak revises local desires from a peer Configure-Nak.
	HandleNak(opts []Option)
	// HandleReject removes rejected options from local desires.
	HandleReject(opts []Option)
	// ApplyPeer applies a peer request we are acknowledging.
	ApplyPeer(opts []Option)
}

// Hooks are the this-layer-up/down signals of RFC 1661 §4.3. Any nil
// hook is skipped. In the P5 these surface as Protocol-OAM interrupts to
// the host. This-layer-started and -finished have no hook: the lower
// layer here is always there to be used.
type Hooks struct {
	Up   func() // tlu: entered Opened
	Down func() // tld: left Opened
}

// Automaton is the RFC 1661 option-negotiation state machine.
// Zero value is not ready: use NewAutomaton.
type Automaton struct {
	// Send transmits a control packet to the peer. Required.
	Send func(*Packet)
	// Hooks receive the this-layer-* signals.
	Hooks Hooks
	// Policy supplies option semantics. Required.
	Policy Policy
	// OnTransition, when set, observes every state change (telemetry
	// tracing); it runs after the state is stored, before any hook.
	OnTransition func(from, to State)
	// Line is the round-trip estimate the restart timer reads and feeds:
	// NewAutomaton's own, or one shared by the timers of a line.
	Line *rtt.Estimate

	state    State
	restart  int  // restart counter
	failures int  // consecutive Configure-Naks sent (Max-Failure)
	id       byte // identifier of our outstanding request
	reqOpts  []Option

	now      int64
	deadline int64 // virtual-time restart timer; 0 = stopped

	sentAt  int64 // tick the unanswered Configure-Request left; -1 = none
	backoff uint  // expiries since the last sample or irc

	// Stats for the OAM register file.
	TxPackets, RxPackets   uint64
	RxBadPackets, Timeouts uint64
}

// NewAutomaton returns an automaton in the Initial state.
func NewAutomaton(send func(*Packet), policy Policy, hooks Hooks) *Automaton {
	return &Automaton{Send: send, Policy: policy, Hooks: hooks, Line: new(rtt.Estimate), state: initial, sentAt: -1}
}

// State reports the current automaton state.
func (a *Automaton) State() State { return a.state }

// --- primitive actions (RFC 1661 §4.4) ---

func (a *Automaton) tlu() {
	if a.Hooks.Up != nil {
		a.Hooks.Up()
	}
}

func (a *Automaton) tld() {
	if a.Hooks.Down != nil {
		a.Hooks.Down()
	}
}

func (a *Automaton) startTimer() { a.deadline = a.now + a.Line.Period(a.backoff) }
func (a *Automaton) stopTimer()  { a.deadline = 0 }

// irc initialises the restart counter for configure or terminate.
func (a *Automaton) irc(terminate bool) {
	a.backoff = 0
	if terminate {
		a.restart = maxTerminate
	} else {
		a.restart = maxConfigure
		a.failures = 0
	}
}

func (a *Automaton) zrc() {
	a.restart = 0
	a.startTimer()
}

func (a *Automaton) send(p *Packet) {
	a.TxPackets++
	if a.Send != nil {
		a.Send(p)
	}
}

// scr sends a Configure-Request with fresh options and a fresh identifier,
// decrements the restart counter and restarts the timer.
func (a *Automaton) scr() {
	a.id++
	a.reqOpts = a.Policy.LocalOptions()
	a.send(&Packet{Code: ConfigureRequest, ID: a.id, Data: MarshalOptions(nil, a.reqOpts)})
	a.restart--
	a.startTimer()
	a.sentAt = a.now
}

func (a *Automaton) sca(id byte, opts []Option) {
	a.send(&Packet{Code: ConfigureAck, ID: id, Data: MarshalOptions(nil, opts)})
}

// scn sends a Configure-Nak or Configure-Reject. Rejects take precedence
// (RFC 1661 §5.4); after Max-Failure naks the naked options are rejected
// instead to guarantee convergence.
func (a *Automaton) scn(id byte, naks, rejs []Option) {
	if len(rejs) > 0 {
		a.send(&Packet{Code: ConfigureReject, ID: id, Data: MarshalOptions(nil, rejs)})
		return
	}
	a.failures++
	if a.failures > maxFailure {
		a.send(&Packet{Code: ConfigureReject, ID: id, Data: MarshalOptions(nil, naks)})
		return
	}
	a.send(&Packet{Code: configureNak, ID: id, Data: MarshalOptions(nil, naks)})
}

func (a *Automaton) str() {
	a.id++
	a.sentAt = -1
	a.send(&Packet{Code: terminateRequest, ID: a.id})
	a.restart--
	a.startTimer()
}

func (a *Automaton) sta(id byte) {
	a.send(&Packet{Code: terminateAck, ID: id})
}

func (a *Automaton) scj(bad *Packet) {
	a.id++
	a.sentAt = -1
	a.send(&Packet{Code: codeReject, ID: a.id, Data: bad.Marshal(nil)})
}

func (a *Automaton) ser(req *Packet) {
	a.send(&Packet{Code: echoReply, ID: req.ID, Data: append([]byte(nil), req.Data...)})
}

func (a *Automaton) setState(s State) {
	prev := a.state
	a.state = s
	// The restart timer only runs in the five "busy" states.
	switch s {
	case reqSent, ackRcvd, ackSent, closing, stopping:
	default:
		a.stopTimer()
	}
	if prev != s && a.OnTransition != nil {
		a.OnTransition(prev, s)
	}
}

// --- administrative events (RFC 1661 §4.1) ---

// Up signals that the lower layer (the physical link / P5 PHY interface)
// is ready to carry traffic.
func (a *Automaton) Up() {
	switch a.state {
	case initial:
		a.setState(closed)
	case Starting:
		a.irc(false)
		a.scr()
		a.setState(reqSent)
	default:
		// Already up: ignore.
	}
}

// Down signals that the lower layer is no longer available.
func (a *Automaton) Down() {
	switch a.state {
	case closed:
		a.setState(initial)
	case Stopped:
		a.setState(Starting)
	case closing:
		a.setState(initial)
	case stopping, reqSent, ackRcvd, ackSent:
		a.setState(Starting)
	case Opened:
		a.tld()
		a.setState(Starting)
	}
}

// Open requests that the link be opened (administrative open).
func (a *Automaton) Open() {
	switch a.state {
	case initial:
		a.setState(Starting)
	case closed:
		a.irc(false)
		a.scr()
		a.setState(reqSent)
	case closing:
		a.setState(stopping)
	default:
		// Starting/Stopped/Stopping restart option and the active
		// states: no transition.
	}
}

// Close requests that the link be closed (administrative close).
func (a *Automaton) Close() {
	switch a.state {
	case Starting:
		a.setState(initial)
	case Stopped:
		a.setState(closed)
	case stopping:
		a.setState(closing)
	case reqSent, ackRcvd, ackSent:
		a.irc(true)
		a.str()
		a.setState(closing)
	case Opened:
		a.tld()
		a.irc(true)
		a.str()
		a.setState(closing)
	}
}

// Advance moves the automaton's virtual clock to now, firing the restart
// timer if it has expired. Call it periodically (or once per simulation
// step).
func (a *Automaton) Advance(now int64) {
	if now > a.now {
		a.now = now
	}
	if a.deadline == 0 || a.now < a.deadline {
		return
	}
	a.Timeouts++
	a.backoff++
	if a.restart > 0 {
		a.timeoutRetry()
	} else {
		a.timeoutGiveUp()
	}
}

// timeoutRetry is the TO+ event.
func (a *Automaton) timeoutRetry() {
	switch a.state {
	case closing:
		a.str()
	case stopping:
		a.str()
		a.setState(stopping)
	case reqSent, ackRcvd:
		a.scr()
		a.setState(reqSent)
	case ackSent:
		a.scr()
	default:
		a.stopTimer()
	}
}

// timeoutGiveUp is the TO- event.
func (a *Automaton) timeoutGiveUp() {
	switch a.state {
	case closing:
		a.setState(closed)
	case stopping, reqSent, ackRcvd, ackSent:
		a.setState(Stopped)
	default:
		a.stopTimer()
	}
}
