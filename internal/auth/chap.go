package auth

import "bytes"

// CHAPServer is the authenticator: it issues challenges and verifies
// MD5 responses (RFC 1994). Unlike PAP, the secret never crosses the
// wire, and the authenticator may re-challenge at any time.
type CHAPServer struct {
	// Name identifies this authenticator in challenges.
	Name string
	// Secrets maps peer name → shared secret.
	Secrets map[string]string
	// Rand supplies challenge bytes (required; seed it well).
	Rand func() byte
	// Send transmits a CHAP packet (required).
	Send func(*Packet)

	id        byte
	challenge []byte
	result    Result
	// Peer is the authenticated identity after Success.
	Peer string
}

// Challenge issues a fresh challenge (call at auth-phase start and for
// periodic re-authentication).
func (s *CHAPServer) Challenge() {
	s.id++
	s.result = pending
	s.challenge = make([]byte, 16)
	for i := range s.challenge {
		s.challenge[i] = s.Rand()
	}
	data := []byte{byte(len(s.challenge))}
	data = append(data, s.challenge...)
	data = append(data, s.Name...)
	s.Send(&Packet{Code: chapChallenge, ID: s.id, Data: data})
}

// Result reports the exchange outcome.
func (s *CHAPServer) Result() Result { return s.result }

// Receive processes a Response.
func (s *CHAPServer) Receive(p *Packet) {
	if p.Code != chapResponse || p.ID != s.id || s.challenge == nil {
		return
	}
	if len(p.Data) < 1 {
		return
	}
	vn := int(p.Data[0])
	if 1+vn > len(p.Data) {
		return
	}
	value := p.Data[1 : 1+vn]
	name := string(p.Data[1+vn:])
	secret, known := s.Secrets[name]
	want := chapHash(p.ID, []byte(secret), s.challenge)
	if known && bytes.Equal(value, want) {
		s.result = Success
		s.Peer = name
		s.Send(&Packet{Code: chapSuccess, ID: p.ID})
		return
	}
	s.result = Failure
	s.Send(&Packet{Code: chapFailure, ID: p.ID})
}

// CHAPClient is the authenticatee: it answers challenges with the MD5
// of the shared secret.
type CHAPClient struct {
	// Name is the identity presented in responses.
	Name string
	// Secret is the shared secret.
	Secret string
	// Send transmits a CHAP packet (required).
	Send func(*Packet)

	result Result
}

// Result reports the exchange outcome.
func (c *CHAPClient) Result() Result { return c.result }

// Receive processes Challenge/Success/Failure packets.
func (c *CHAPClient) Receive(p *Packet) {
	switch p.Code {
	case chapChallenge:
		if len(p.Data) < 1 {
			return
		}
		vn := int(p.Data[0])
		if 1+vn > len(p.Data) {
			return
		}
		challenge := p.Data[1 : 1+vn]
		value := chapHash(p.ID, []byte(c.Secret), challenge)
		data := []byte{byte(len(value))}
		data = append(data, value...)
		data = append(data, c.Name...)
		c.Send(&Packet{Code: chapResponse, ID: p.ID, Data: data})
	case chapSuccess:
		c.result = Success
	case chapFailure:
		c.result = Failure
	}
}
