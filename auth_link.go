package gigapos

import (
	"crypto/rand"
	"io"

	"repro/internal/auth"
	"repro/internal/ppp"
)

// This file adds the RFC 1661 authentication phase to the Link: when
// either side's LCP demands an authentication protocol (option 3), the
// network phase (IPCP, numbered mode) is gated behind a successful
// PAP (RFC 1334) or CHAP (RFC 1994) exchange.

// Authentication protocol selectors for LinkConfig.RequireAuth.
const (
	AuthPAP  = auth.ProtoPAP
	AuthCHAP = auth.ProtoCHAP
)

// AuthConfig is the authentication part of a LinkConfig.
type AuthConfig struct {
	// Require demands the peer authenticate with this protocol
	// (AuthPAP or AuthCHAP); zero demands nothing.
	Require uint16
	// Secrets is the authenticator's table: identity → secret.
	Secrets map[string]string
	// Identity and Secret are this node's own credentials for
	// answering a peer's demand.
	Identity, Secret string
	// Name identifies this node in CHAP challenges (defaults to
	// Identity).
	Name string
}

type linkAuth struct {
	cfg AuthConfig

	papSrv  *auth.PAPServer
	papCli  *auth.PAPClient
	chapSrv *auth.CHAPServer
	chapCli *auth.CHAPClient
}

// peer is the identity the peer proved to this end: empty unless this
// end demanded authentication and it succeeded.
func (a *linkAuth) peer() string {
	switch {
	case a == nil:
		return ""
	case a.papSrv != nil:
		return a.papSrv.Peer
	case a.chapSrv != nil:
		return a.chapSrv.Peer
	}
	return ""
}

func (a *AuthConfig) name() string {
	if a.Name != "" {
		return a.Name
	}
	return a.Identity
}

// initAuth builds the endpoints configured for this link.
func (l *Link) initAuth() {
	a := &linkAuth{cfg: l.cfg.Auth}
	l.auth = a
	send := func(proto uint16) func(*auth.Packet) {
		return func(p *auth.Packet) {
			l.sendFrame(l.lcpTxConfig(), proto, p.Marshal(nil))
		}
	}
	switch a.cfg.Require {
	case AuthPAP:
		a.papSrv = &auth.PAPServer{Secrets: a.cfg.Secrets, Send: send(auth.ProtoPAP)}
	case AuthCHAP:
		a.chapSrv = &auth.CHAPServer{Name: a.cfg.name(), Secrets: a.cfg.Secrets,
			Rand: challengeByte, Send: send(auth.ProtoCHAP)}
	}
	if a.cfg.Identity != "" {
		a.papCli = &auth.PAPClient{PeerID: a.cfg.Identity, Password: a.cfg.Secret,
			Send: send(auth.ProtoPAP)}
		a.chapCli = &auth.CHAPClient{Name: a.cfg.Identity, Secret: a.cfg.Secret,
			Send: send(auth.ProtoCHAP)}
	}
	// Advertise what we demand and what we can answer.
	l.lcpPol.RequireAuth = a.cfg.Require
	if a.cfg.Identity != "" {
		l.lcpPol.CanAuth = map[uint16]bool{AuthPAP: true, AuthCHAP: true}
	}
}

// challengeByte draws CHAP challenge octets from the system's secure
// source: RFC 1994 §2.3 asks for challenges that are unique and
// unpredictable, so nothing the peer can read (the LCP magic crosses
// the wire in clear) may seed them. A source that fails fails closed,
// whatever toolchain builds this: go.mod admits Go 1.22, whose Read
// returns the error and leaves the octet zero, a challenge the peer
// could predict; since Go 1.24 the default source aborts the program
// itself.
func challengeByte() byte { return challengeFrom(rand.Reader) }

// challengeFrom is challengeByte from source r.
func challengeFrom(r io.Reader) byte {
	var b [1]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		panic("gigapos: CHAP challenge: " + err.Error())
	}
	return b[0]
}

// startAuthPhase begins the exchanges after LCP opens.
func (l *Link) startAuthPhase() {
	a := l.auth
	if a.chapSrv != nil {
		a.chapSrv.Challenge()
	}
	// PAP is initiated by the authenticatee.
	if l.lcpPol.AuthDemanded == auth.ProtoPAP && a.papCli != nil {
		a.papCli.Start()
	}
	l.maybeEnterNetworkPhase()
}

// authSatisfied reports whether both directions' demands are met.
func (l *Link) authSatisfied() bool {
	if l.auth == nil {
		return true
	}
	a := l.auth
	if a.papSrv != nil && a.papSrv.Result() != auth.Success {
		return false
	}
	if a.chapSrv != nil && a.chapSrv.Result() != auth.Success {
		return false
	}
	switch l.lcpPol.AuthDemanded {
	case auth.ProtoPAP:
		if a.papCli == nil || a.papCli.Result() != auth.Success {
			return false
		}
	case auth.ProtoCHAP:
		if a.chapCli == nil || a.chapCli.Result() != auth.Success {
			return false
		}
	}
	return true
}

// authFailed reports a definitive failure in either direction.
func (l *Link) authFailed() bool {
	if l.auth == nil {
		return false
	}
	a := l.auth
	if a.papSrv != nil && a.papSrv.Result() == auth.Failure {
		return true
	}
	if a.chapSrv != nil && a.chapSrv.Result() == auth.Failure {
		return true
	}
	if a.papCli != nil && a.papCli.Result() == auth.Failure {
		return true
	}
	if a.chapCli != nil && a.chapCli.Result() == auth.Failure {
		return true
	}
	return false
}

// maybeEnterNetworkPhase advances to IPCP (and numbered mode) once
// authentication is complete; on failure the link is torn down, as
// RFC 1661 §3.5 prescribes.
func (l *Link) maybeEnterNetworkPhase() {
	if !l.Opened() || l.networkUp {
		return
	}
	if l.authFailed() {
		l.AuthFailures++
		l.lcpA.Close()
		return
	}
	if !l.authSatisfied() {
		return
	}
	l.networkUp = true
	if peer := l.auth.peer(); peer != "" {
		l.trace("authenticated", peer, 0, 0)
	}
	l.ipcpA.Up()
	if l.station != nil {
		l.station.Connect()
	}
}

// authFrame dispatches a received PAP/CHAP packet.
func (l *Link) authFrame(f *ppp.Frame) {
	if l.auth == nil || !l.Opened() {
		return
	}
	p, err := auth.Parse(f.Payload)
	if err != nil {
		l.RxBadAuth++
		return
	}
	a := l.auth
	switch f.Protocol {
	case auth.ProtoPAP:
		// Code 1 is a request toward our server; replies go to the
		// client.
		if p.Code == 1 {
			if a.papSrv != nil {
				a.papSrv.Receive(p)
			}
		} else if a.papCli != nil {
			a.papCli.Receive(p)
		}
	case auth.ProtoCHAP:
		// Responses go to the server; challenges and verdicts to the
		// client.
		if p.Code == 2 {
			if a.chapSrv != nil {
				a.chapSrv.Receive(p)
			}
		} else if a.chapCli != nil {
			a.chapCli.Receive(p)
		}
	}
	l.maybeEnterNetworkPhase()
}
