package auth

// PAPClient is the authenticatee: it sends Authenticate-Request until
// acknowledged (RFC 1334 §2).
type PAPClient struct {
	// PeerID and Password are the credentials to present.
	PeerID, Password string
	// Send transmits a PAP packet (required).
	Send func(*Packet)

	id     byte
	result Result
}

// Start transmits the first Authenticate-Request.
func (c *PAPClient) Start() {
	c.id++
	c.result = pending
	c.Send(&Packet{Code: papRequest, ID: c.id, Data: papCreds(c.PeerID, c.Password)})
}

// Result reports the exchange outcome.
func (c *PAPClient) Result() Result { return c.result }

// Receive processes an authenticator reply.
func (c *PAPClient) Receive(p *Packet) {
	if p.ID != c.id {
		return
	}
	switch p.Code {
	case papAck:
		c.result = Success
	case papNak:
		c.result = Failure
	}
}

func papCreds(id, pw string) []byte {
	out := []byte{byte(len(id))}
	out = append(out, id...)
	out = append(out, byte(len(pw)))
	return append(out, pw...)
}

// PAPServer is the authenticator: it validates Authenticate-Requests
// against a secrets table.
type PAPServer struct {
	// Secrets maps peer-id → password.
	Secrets map[string]string
	// Send transmits a PAP packet (required).
	Send func(*Packet)

	result Result
	// Peer is the authenticated identity after Success.
	Peer string
}

// Result reports the exchange outcome.
func (s *PAPServer) Result() Result { return s.result }

// Receive processes an Authenticate-Request.
func (s *PAPServer) Receive(p *Packet) {
	if p.Code != papRequest {
		return
	}
	id, pw, ok := parsePAPCreds(p.Data)
	if ok && s.Secrets[id] == pw && pw != "" {
		s.result = Success
		s.Peer = id
		s.Send(&Packet{Code: papAck, ID: p.ID, Data: papText("welcome")})
		return
	}
	s.result = Failure
	s.Send(&Packet{Code: papNak, ID: p.ID, Data: papText("bad credentials")})
}

func parsePAPCreds(b []byte) (id, pw string, ok bool) {
	if len(b) < 1 {
		return "", "", false
	}
	n := int(b[0])
	if 1+n+1 > len(b) {
		return "", "", false
	}
	id = string(b[1 : 1+n])
	rest := b[1+n:]
	m := int(rest[0])
	if 1+m > len(rest) {
		return "", "", false
	}
	return id, string(rest[1 : 1+m]), true
}

func papText(msg string) []byte {
	out := []byte{byte(len(msg))}
	return append(out, msg...)
}
