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
	case ConfigureAck, configureNak, ConfigureReject:
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
		case configureNak:
			a.Policy.HandleNak(opts)
			a.rcn()
		default:
			a.Policy.HandleReject(opts)
			a.rcn()
		}
	case terminateRequest:
		a.rtr(p.ID)
	case terminateAck:
		a.rta()
	case codeReject:
		// Reject of a code we depend on is catastrophic (RXJ-);
		// reject of an extension code is permitted (RXJ+).
		if rej, err := ParsePacket(p.Data); err == nil && rej.Code >= ConfigureRequest && rej.Code <= terminateAck {
			a.rxjBad()
		}
		// RXJ+ has no transitions: silently ignored.
	case protocolReject:
		// Passed up in a full stack; for the automaton it is RXJ+.
	case EchoRequest:
		a.rxr(p, true)
	case echoReply, discardRequest:
		a.rxr(p, false)
	default:
		a.ruc(p)
	}
}

// rcrGood is RCR+: an acceptable Configure-Request.
func (a *Automaton) rcrGood(id byte, opts []Option) {
	switch a.state {
	case closed:
		a.sta(id)
	case Stopped:
		a.irc(false)
		a.scr()
		a.sca(id, opts)
		a.Policy.ApplyPeer(opts)
		a.setState(ackSent)
	case closing, stopping:
		// Terminating: ignore.
	case reqSent:
		a.sca(id, opts)
		a.Policy.ApplyPeer(opts)
		a.setState(ackSent)
	case ackRcvd:
		a.sca(id, opts)
		a.Policy.ApplyPeer(opts)
		a.setState(Opened)
		a.tlu()
	case ackSent:
		a.sca(id, opts)
		a.Policy.ApplyPeer(opts)
	case Opened:
		a.tld()
		a.scr()
		a.sca(id, opts)
		a.Policy.ApplyPeer(opts)
		a.setState(ackSent)
	}
}

// rcrBad is RCR-: an unacceptable Configure-Request.
func (a *Automaton) rcrBad(id byte, naks, rejs []Option) {
	switch a.state {
	case closed:
		a.sta(id)
	case Stopped:
		a.irc(false)
		a.scr()
		a.scn(id, naks, rejs)
		a.setState(reqSent)
	case closing, stopping:
	case reqSent, ackSent:
		a.scn(id, naks, rejs)
		a.setState(reqSent)
	case ackRcvd:
		a.scn(id, naks, rejs)
	case Opened:
		a.tld()
		a.scr()
		a.scn(id, naks, rejs)
		a.setState(reqSent)
	}
}

// rca is RCA: the peer acknowledged our request.
func (a *Automaton) rca() {
	switch a.state {
	case closed, Stopped:
		a.sta(a.id)
	case closing, stopping:
	case reqSent:
		a.irc(false)
		a.Policy.PeerAcked(a.reqOpts)
		a.setState(ackRcvd)
	case ackRcvd:
		// Crossed acks: restart.
		a.scr()
		a.setState(reqSent)
	case ackSent:
		a.irc(false)
		a.Policy.PeerAcked(a.reqOpts)
		a.setState(Opened)
		a.tlu()
	case Opened:
		a.tld()
		a.scr()
		a.setState(reqSent)
	}
}

// rcn is RCN: the peer naked or rejected our request; LocalOptions has
// already been revised by the Policy.
func (a *Automaton) rcn() {
	switch a.state {
	case closed, Stopped:
		a.sta(a.id)
	case closing, stopping:
	case reqSent:
		a.irc(false)
		a.scr()
	case ackRcvd:
		a.scr()
		a.setState(reqSent)
	case ackSent:
		a.irc(false)
		a.scr()
	case Opened:
		a.tld()
		a.scr()
		a.setState(reqSent)
	}
}

// rtr is RTR: the peer requested termination.
func (a *Automaton) rtr(id byte) {
	switch a.state {
	case closed, Stopped, closing, stopping, reqSent:
		a.sta(id)
	case ackRcvd, ackSent:
		a.sta(id)
		a.setState(reqSent)
	case Opened:
		a.tld()
		a.zrc()
		a.sta(id)
		a.setState(stopping)
	}
}

// rta is RTA: the peer acknowledged our Terminate-Request.
func (a *Automaton) rta() {
	switch a.state {
	case closing:
		a.setState(closed)
	case stopping:
		a.setState(Stopped)
	case ackRcvd:
		a.setState(reqSent)
	case Opened:
		a.tld()
		a.scr()
		a.setState(reqSent)
	default:
	}
}

// ruc is RUC: an unknown code arrived; send Code-Reject.
func (a *Automaton) ruc(p *Packet) {
	switch a.state {
	case initial, Starting:
	default:
		a.scj(p)
	}
}

// rxjBad is RXJ-: a catastrophic Code/Protocol-Reject.
func (a *Automaton) rxjBad() {
	switch a.state {
	case closed, closing:
		a.setState(closed)
	case Stopped, stopping, reqSent, ackRcvd, ackSent:
		a.setState(Stopped)
	case Opened:
		a.tld()
		a.irc(true)
		a.str()
		a.setState(stopping)
	}
}

// rxr is RXR: Echo-Request/Reply or Discard-Request. Only an Opened link
// replies to echoes (RFC 1661 §5.8).
func (a *Automaton) rxr(p *Packet, reply bool) {
	if a.state == Opened && reply {
		a.ser(p)
	}
}
