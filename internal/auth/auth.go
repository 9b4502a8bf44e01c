// Package auth implements the PPP authentication phase: the Password
// Authentication Protocol (PAP, RFC 1334) and the Challenge Handshake
// Authentication Protocol (CHAP, RFC 1994). Authentication sits between
// LCP reaching Opened and the NCPs starting (RFC 1661 §3.5); an
// authenticator demands it through the LCP authentication-protocol
// option.
package auth

import (
	"crypto/md5"
	"errors"
)

// PPP protocol numbers.
const (
	ProtoPAP  = 0xC023
	ProtoCHAP = 0xC223
)

// Packet codes shared by PAP and CHAP (values differ in meaning).
const (
	papRequest = 1
	papAck     = 2
	papNak     = 3

	chapChallenge = 1
	chapResponse  = 2
	chapSuccess   = 3
	chapFailure   = 4
)

// errMalformed reports a packet too short or inconsistent to parse.
var errMalformed = errors.New("auth: malformed packet")

// Packet is one authentication-protocol packet (same header layout as
// LCP: code, id, length).
type Packet struct {
	Code byte
	ID   byte
	Data []byte
}

// Marshal appends the wire encoding.
func (p *Packet) Marshal(dst []byte) []byte {
	n := 4 + len(p.Data)
	dst = append(dst, p.Code, p.ID, byte(n>>8), byte(n))
	return append(dst, p.Data...)
}

// Parse decodes a packet from a PPP information field.
func Parse(b []byte) (*Packet, error) {
	if len(b) < 4 {
		return nil, errMalformed
	}
	n := int(b[2])<<8 | int(b[3])
	if n < 4 || n > len(b) {
		return nil, errMalformed
	}
	return &Packet{Code: b[0], ID: b[1], Data: b[4:n]}, nil
}

// chapHash computes the RFC 1994 MD5 response: MD5(id | secret |
// challenge).
func chapHash(id byte, secret, challenge []byte) []byte {
	h := md5.New()
	h.Write([]byte{id})
	h.Write(secret)
	h.Write(challenge)
	return h.Sum(nil)
}

// Result is the outcome of an authentication exchange.
type Result int

// Outcomes.
const (
	pending Result = iota
	Success
	Failure
)

func (r Result) String() string {
	switch r {
	case Success:
		return "success"
	case Failure:
		return "failure"
	default:
		return "pending"
	}
}
