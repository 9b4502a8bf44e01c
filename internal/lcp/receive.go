package lcp

// Receive processes one control packet from the peer, driving the
// receive events of the RFC 1661 state table (RCR+/-, RCA, RCN, RTR,
// RTA, RUC, RXJ+/-, RXR).
func (a *Automaton) Receive(p *Packet) {
	a.RxPackets++
	switch p.Code {
	case ConfigureRequest:
		opts, err := ParseOptions(p.Data)
		if err != nil {
			a.RxBadPackets++
			return
		}
		naks, rejs := a.Policy.CheckRequest(opts)
		if len(naks) == 0 && len(rejs) == 0 {
			a.rcrGood(p.ID, opts)
		} else {
			a.rcrBad(p.ID, naks, rejs)
		}
	case ConfigureAck, ConfigureNak, ConfigureReject:
		opts, err := ParseOptions(p.Data)
		if p.ID != a.id || err != nil || p.Code == ConfigureAck && !optionsEqual(opts, a.reqOpts) {
			a.RxBadPackets++
			return
		}
		if a.Line.Sample(a.sentAt, a.now) { // accepted, and fresh per request: unambiguous
			a.backoff = 0
		}
		a.sentAt = -1
		switch p.Code {
		case ConfigureAck:
			a.rca()
		case ConfigureNak:
			a.Policy.HandleNak(opts)
			a.rcn()
		default:
			a.Policy.HandleReject(opts)
			a.rcn()
		}
	case TerminateRequest:
		a.rtr(p.ID)
	case TerminateAck:
		a.rta()
	case CodeReject:
		// Reject of a code we depend on is catastrophic (RXJ-);
		// reject of an extension code is permitted (RXJ+).
		if rej, err := ParsePacket(p.Data); err == nil && rej.Code >= ConfigureRequest && rej.Code <= TerminateAck {
			a.rxjBad()
		}
		// RXJ+ has no transitions: silently ignored.
	case ProtocolReject:
		// Passed up in a full stack; for the automaton it is RXJ+.
	case EchoRequest:
		a.rxr(p, true)
	case EchoReply, DiscardRequest:
		a.rxr(p, false)
	default:
		a.ruc(p)
	}
}

// rcrGood is RCR+: an acceptable Configure-Request.
func (a *Automaton) rcrGood(id byte, opts []Option) {
	switch a.state {
	case Closed:
		a.sta(id)
	case Stopped:
		a.irc(false)
		a.scr()
		a.sca(id, opts)
		a.Policy.ApplyPeer(opts)
		a.setState(AckSent)
	case Closing, Stopping:
		// Terminating: ignore.
	case ReqSent:
		a.sca(id, opts)
		a.Policy.ApplyPeer(opts)
		a.setState(AckSent)
	case AckRcvd:
		a.sca(id, opts)
		a.Policy.ApplyPeer(opts)
		a.setState(Opened)
		a.tlu()
	case AckSent:
		a.sca(id, opts)
		a.Policy.ApplyPeer(opts)
	case Opened:
		a.tld()
		a.scr()
		a.sca(id, opts)
		a.Policy.ApplyPeer(opts)
		a.setState(AckSent)
	}
}

// rcrBad is RCR-: an unacceptable Configure-Request.
func (a *Automaton) rcrBad(id byte, naks, rejs []Option) {
	switch a.state {
	case Closed:
		a.sta(id)
	case Stopped:
		a.irc(false)
		a.scr()
		a.scn(id, naks, rejs)
		a.setState(ReqSent)
	case Closing, Stopping:
	case ReqSent, AckSent:
		a.scn(id, naks, rejs)
		a.setState(ReqSent)
	case AckRcvd:
		a.scn(id, naks, rejs)
	case Opened:
		a.tld()
		a.scr()
		a.scn(id, naks, rejs)
		a.setState(ReqSent)
	}
}

// rca is RCA: the peer acknowledged our request.
func (a *Automaton) rca() {
	switch a.state {
	case Closed, Stopped:
		a.sta(a.id)
	case Closing, Stopping:
	case ReqSent:
		a.irc(false)
		a.Policy.PeerAcked(a.reqOpts)
		a.setState(AckRcvd)
	case AckRcvd:
		// Crossed acks: restart.
		a.scr()
		a.setState(ReqSent)
	case AckSent:
		a.irc(false)
		a.Policy.PeerAcked(a.reqOpts)
		a.setState(Opened)
		a.tlu()
	case Opened:
		a.tld()
		a.scr()
		a.setState(ReqSent)
	}
}

// rcn is RCN: the peer naked or rejected our request; LocalOptions has
// already been revised by the Policy.
func (a *Automaton) rcn() {
	switch a.state {
	case Closed, Stopped:
		a.sta(a.id)
	case Closing, Stopping:
	case ReqSent:
		a.irc(false)
		a.scr()
	case AckRcvd:
		a.scr()
		a.setState(ReqSent)
	case AckSent:
		a.irc(false)
		a.scr()
	case Opened:
		a.tld()
		a.scr()
		a.setState(ReqSent)
	}
}

// rtr is RTR: the peer requested termination.
func (a *Automaton) rtr(id byte) {
	switch a.state {
	case Closed, Stopped, Closing, Stopping, ReqSent:
		a.sta(id)
	case AckRcvd, AckSent:
		a.sta(id)
		a.setState(ReqSent)
	case Opened:
		a.tld()
		a.zrc()
		a.sta(id)
		a.setState(Stopping)
	}
}

// rta is RTA: the peer acknowledged our Terminate-Request.
func (a *Automaton) rta() {
	switch a.state {
	case Closing:
		a.tlf()
		a.setState(Closed)
	case Stopping:
		a.tlf()
		a.setState(Stopped)
	case AckRcvd:
		a.setState(ReqSent)
	case Opened:
		a.tld()
		a.scr()
		a.setState(ReqSent)
	default:
	}
}

// ruc is RUC: an unknown code arrived; send Code-Reject.
func (a *Automaton) ruc(p *Packet) {
	switch a.state {
	case Initial, Starting:
	default:
		a.scj(p)
	}
}

// rxjBad is RXJ-: a catastrophic Code/Protocol-Reject.
func (a *Automaton) rxjBad() {
	switch a.state {
	case Closed, Closing:
		a.tlf()
		a.setState(Closed)
	case Stopped, Stopping, ReqSent, AckRcvd, AckSent:
		a.tlf()
		a.setState(Stopped)
	case Opened:
		a.tld()
		a.irc(true)
		a.str()
		a.setState(Stopping)
	}
}

// rxr is RXR: Echo-Request/Reply or Discard-Request. Only an Opened link
// replies to echoes (RFC 1661 §5.8).
func (a *Automaton) rxr(p *Packet, reply bool) {
	if a.state == Opened && reply {
		a.ser(p)
	}
}
