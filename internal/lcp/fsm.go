package lcp

import "fmt"

// State is an RFC 1661 §4.2 automaton state.
type State int

// The ten automaton states.
const (
	Initial State = iota
	Starting
	Closed
	Stopped
	Closing
	Stopping
	ReqSent
	AckRcvd
	AckSent
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

// Default restart parameters (RFC 1661 §4.6).
const (
	DefaultMaxConfigure = 10
	DefaultMaxTerminate = 2
	DefaultMaxFailure   = 5
	// DefaultRestartPeriod is the restart timer in virtual time units
	// (Advance's clock: seconds, cycles, ...) until a round trip has
	// been measured, and its floor after.
	DefaultRestartPeriod = 3
)

// maxRestartPeriod caps the measured timer, so a peer that delays its
// Acks can hold a negotiation at most MaxConfigure × 1024 ticks before
// TO- gives up. The carriers here settle well below it (E32): 5–42
// ticks on pipes, STM-16 lines, rings, the jittered circuit and socket
// dialers; up to ~550 on a socket listener whose first sample spans
// its peer's start-up.
const maxRestartPeriod = 1024

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

// Hooks are the this-layer-* signals of RFC 1661 §4.3. Any nil hook is
// skipped. In the P5 these surface as Protocol-OAM interrupts to the host.
type Hooks struct {
	Up       func() // tlu: entered Opened
	Down     func() // tld: left Opened
	Started  func() // tls: lower layer should come up
	Finished func() // tlf: lower layer no longer needed
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

	// Restart parameters; zero values take the RFC defaults.
	MaxConfigure int
	MaxTerminate int
	MaxFailure   int

	state    State
	restart  int  // restart counter
	failures int  // consecutive Configure-Naks sent (Max-Failure)
	id       byte // identifier of our outstanding request
	reqOpts  []Option

	now      int64
	deadline int64 // virtual-time restart timer; 0 = stopped

	// RFC 6298's timer over Configure round trips (eighths of a tick,
	// kept across negotiations), doubled per expiry until a sample or irc.
	sentAt       int64 // tick the unanswered Configure-Request left; -1 = none
	srtt, rttvar int64
	backoff      uint

	// Stats for the OAM register file.
	TxPackets, RxPackets   uint64
	RxBadPackets, Timeouts uint64
}

// NewAutomaton returns an automaton in the Initial state.
func NewAutomaton(send func(*Packet), policy Policy, hooks Hooks) *Automaton {
	return &Automaton{Send: send, Policy: policy, Hooks: hooks, state: Initial, sentAt: -1}
}

// State reports the current automaton state.
func (a *Automaton) State() State { return a.state }

func (a *Automaton) maxConfigure() int {
	if a.MaxConfigure == 0 {
		return DefaultMaxConfigure
	}
	return a.MaxConfigure
}

func (a *Automaton) maxTerminate() int {
	if a.MaxTerminate == 0 {
		return DefaultMaxTerminate
	}
	return a.MaxTerminate
}

func (a *Automaton) maxFailure() int {
	if a.MaxFailure == 0 {
		return DefaultMaxFailure
	}
	return a.MaxFailure
}

// restartPeriod is srtt + max(1, 4·rttvar), doubled per backoff, within
// [DefaultRestartPeriod, maxRestartPeriod].
func (a *Automaton) restartPeriod() int64 {
	rto := max((a.srtt+max(8, 4*a.rttvar)+7)>>3, DefaultRestartPeriod)
	return min(rto<<a.backoff, maxRestartPeriod)
}

// measure samples a reply to the outstanding Configure-Request. Its
// identifier is fresh per request, so the sample is never ambiguous.
func (a *Automaton) measure() {
	if a.sentAt < 0 {
		return
	}
	r := (a.now - a.sentAt) << 3
	a.sentAt, a.backoff = -1, 0
	if a.srtt == 0 { // the first sample (zero-tick ones leave no trace)
		a.srtt, a.rttvar = r, r/2
		return
	}
	d := r - a.srtt
	a.srtt += d >> 3
	a.rttvar += (max(d, -d) - a.rttvar) >> 2
}

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

func (a *Automaton) tls() {
	if a.Hooks.Started != nil {
		a.Hooks.Started()
	}
}

func (a *Automaton) tlf() {
	if a.Hooks.Finished != nil {
		a.Hooks.Finished()
	}
}

func (a *Automaton) startTimer() { a.deadline = a.now + a.restartPeriod() }
func (a *Automaton) stopTimer()  { a.deadline = 0 }

// irc initialises the restart counter for configure or terminate.
func (a *Automaton) irc(terminate bool) {
	a.backoff = 0
	if terminate {
		a.restart = a.maxTerminate()
	} else {
		a.restart = a.maxConfigure()
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
	if a.failures > a.maxFailure() {
		a.send(&Packet{Code: ConfigureReject, ID: id, Data: MarshalOptions(nil, naks)})
		return
	}
	a.send(&Packet{Code: ConfigureNak, ID: id, Data: MarshalOptions(nil, naks)})
}

func (a *Automaton) str() {
	a.id++
	a.sentAt = -1
	a.send(&Packet{Code: TerminateRequest, ID: a.id})
	a.restart--
	a.startTimer()
}

func (a *Automaton) sta(id byte) {
	a.send(&Packet{Code: TerminateAck, ID: id})
}

func (a *Automaton) scj(bad *Packet) {
	a.id++
	a.sentAt = -1
	a.send(&Packet{Code: CodeReject, ID: a.id, Data: bad.Marshal(nil)})
}

func (a *Automaton) ser(req *Packet) {
	a.send(&Packet{Code: EchoReply, ID: req.ID, Data: append([]byte(nil), req.Data...)})
}

func (a *Automaton) setState(s State) {
	prev := a.state
	a.state = s
	// The restart timer only runs in the five "busy" states.
	switch s {
	case ReqSent, AckRcvd, AckSent, Closing, Stopping:
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
	case Initial:
		a.setState(Closed)
	case Starting:
		a.irc(false)
		a.scr()
		a.setState(ReqSent)
	default:
		// Already up: ignore.
	}
}

// Down signals that the lower layer is no longer available.
func (a *Automaton) Down() {
	switch a.state {
	case Closed:
		a.setState(Initial)
	case Stopped:
		a.tls()
		a.setState(Starting)
	case Closing:
		a.setState(Initial)
	case Stopping, ReqSent, AckRcvd, AckSent:
		a.setState(Starting)
	case Opened:
		a.tld()
		a.setState(Starting)
	}
}

// Open requests that the link be opened (administrative open).
func (a *Automaton) Open() {
	switch a.state {
	case Initial:
		a.tls()
		a.setState(Starting)
	case Closed:
		a.irc(false)
		a.scr()
		a.setState(ReqSent)
	case Closing:
		a.setState(Stopping)
	default:
		// Starting/Stopped/Stopping restart option and the active
		// states: no transition.
	}
}

// Close requests that the link be closed (administrative close).
func (a *Automaton) Close() {
	switch a.state {
	case Starting:
		a.tlf()
		a.setState(Initial)
	case Stopped:
		a.setState(Closed)
	case Stopping:
		a.setState(Closing)
	case ReqSent, AckRcvd, AckSent:
		a.irc(true)
		a.str()
		a.setState(Closing)
	case Opened:
		a.tld()
		a.irc(true)
		a.str()
		a.setState(Closing)
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
	if a.restartPeriod() < maxRestartPeriod {
		a.backoff++
	}
	if a.restart > 0 {
		a.timeoutRetry()
	} else {
		a.timeoutGiveUp()
	}
}

// timeoutRetry is the TO+ event.
func (a *Automaton) timeoutRetry() {
	switch a.state {
	case Closing:
		a.str()
	case Stopping:
		a.str()
		a.setState(Stopping)
	case ReqSent, AckRcvd:
		a.scr()
		a.setState(ReqSent)
	case AckSent:
		a.scr()
	default:
		a.stopTimer()
	}
}

// timeoutGiveUp is the TO- event.
func (a *Automaton) timeoutGiveUp() {
	switch a.state {
	case Closing:
		a.tlf()
		a.setState(Closed)
	case Stopping, ReqSent, AckRcvd, AckSent:
		a.tlf()
		a.setState(Stopped)
	default:
		a.stopTimer()
	}
}
