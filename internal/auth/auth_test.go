package auth

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPacketRoundTrip(t *testing.T) {
	f := func(code, id byte, data []byte) bool {
		p := &Packet{Code: code, ID: id, Data: data}
		q, err := Parse(p.Marshal(nil))
		if err != nil {
			return false
		}
		if q.Code != code || q.ID != id || len(q.Data) != len(data) {
			return false
		}
		for i := range data {
			if q.Data[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if _, err := Parse([]byte{1, 2}); err != errMalformed {
		t.Error("short packet accepted")
	}
	if _, err := Parse([]byte{1, 2, 0, 99}); err != errMalformed {
		t.Error("overlong length accepted")
	}
}

func papPair(secrets map[string]string, id, pw string) (*PAPClient, *PAPServer) {
	var c *PAPClient
	var s *PAPServer
	c = &PAPClient{PeerID: id, Password: pw, Send: func(p *Packet) {
		q, _ := Parse(p.Marshal(nil))
		s.Receive(q)
	}}
	s = &PAPServer{Secrets: secrets, Send: func(p *Packet) {
		q, _ := Parse(p.Marshal(nil))
		c.Receive(q)
	}}
	return c, s
}

func TestPAPSuccess(t *testing.T) {
	c, s := papPair(map[string]string{"alice": "s3cret"}, "alice", "s3cret")
	c.Start()
	if c.Result() != Success || s.Result() != Success {
		t.Fatalf("results: %v / %v", c.Result(), s.Result())
	}
	if s.Peer != "alice" {
		t.Errorf("peer = %q", s.Peer)
	}
}

func TestPAPWrongPassword(t *testing.T) {
	c, s := papPair(map[string]string{"alice": "s3cret"}, "alice", "wrong")
	c.Start()
	if c.Result() != Failure || s.Result() != Failure {
		t.Fatalf("results: %v / %v", c.Result(), s.Result())
	}
}

func TestPAPUnknownUser(t *testing.T) {
	c, s := papPair(map[string]string{"alice": "s3cret"}, "mallory", "s3cret")
	c.Start()
	if c.Result() != Failure || s.Result() != Failure {
		t.Fatal("unknown user accepted")
	}
}

func TestPAPEmptyPasswordNeverMatches(t *testing.T) {
	c, _ := papPair(map[string]string{"ghost": ""}, "ghost", "")
	c.Start()
	if c.Result() == Success {
		t.Fatal("empty password accepted")
	}
}

func TestPAPStaleReplyIgnored(t *testing.T) {
	c := &PAPClient{PeerID: "a", Password: "b", Send: func(*Packet) {}}
	c.Start()
	c.Receive(&Packet{Code: papAck, ID: 99})
	if c.Result() != pending {
		t.Error("stale ack accepted")
	}
}

func chapPair(secrets map[string]string, name, secret string) (*CHAPClient, *CHAPServer) {
	rng := rand.New(rand.NewSource(5))
	var c *CHAPClient
	var s *CHAPServer
	c = &CHAPClient{Name: name, Secret: secret, Send: func(p *Packet) {
		q, _ := Parse(p.Marshal(nil))
		s.Receive(q)
	}}
	s = &CHAPServer{Name: "gateway", Secrets: secrets,
		Rand: func() byte { return byte(rng.Intn(256)) },
		Send: func(p *Packet) {
			q, _ := Parse(p.Marshal(nil))
			c.Receive(q)
		}}
	return c, s
}

func TestCHAPSuccess(t *testing.T) {
	c, s := chapPair(map[string]string{"bob": "hunter2"}, "bob", "hunter2")
	s.Challenge()
	if c.Result() != Success || s.Result() != Success {
		t.Fatalf("results: %v / %v", c.Result(), s.Result())
	}
	if s.Peer != "bob" {
		t.Errorf("peer = %q", s.Peer)
	}
}

func TestCHAPWrongSecret(t *testing.T) {
	c, s := chapPair(map[string]string{"bob": "hunter2"}, "bob", "letmein")
	s.Challenge()
	if c.Result() != Failure || s.Result() != Failure {
		t.Fatal("wrong secret accepted")
	}
}

func TestCHAPRechallenge(t *testing.T) {
	c, s := chapPair(map[string]string{"bob": "hunter2"}, "bob", "hunter2")
	s.Challenge()
	if s.Result() != Success {
		t.Fatal("first challenge failed")
	}
	// Periodic re-authentication (RFC 1994 §2): a fresh challenge with
	// a new id must succeed again.
	s.Challenge()
	if s.Result() != Success || c.Result() != Success {
		t.Fatal("re-challenge failed")
	}
}

func TestCHAPReplayRejected(t *testing.T) {
	// Capture a valid response, then replay it against a new challenge:
	// the hash covers the challenge value, so it must fail.
	rng := rand.New(rand.NewSource(9))
	var captured *Packet
	s := &CHAPServer{Name: "gw", Secrets: map[string]string{"bob": "pw"},
		Rand: func() byte { return byte(rng.Intn(256)) },
		Send: func(*Packet) {}}
	c := &CHAPClient{Name: "bob", Secret: "pw", Send: func(p *Packet) {
		q, _ := Parse(p.Marshal(nil))
		captured = q
	}}
	s.Challenge()
	// Deliver the challenge manually to the client to capture response.
	chal := &Packet{Code: chapChallenge, ID: s.id, Data: append([]byte{byte(len(s.challenge))}, append(append([]byte{}, s.challenge...), "gw"...)...)}
	c.Receive(chal)
	if captured == nil {
		t.Fatal("no response captured")
	}
	// New challenge; replay the old response with the new id.
	s.Challenge()
	replay := &Packet{Code: chapResponse, ID: s.id, Data: captured.Data}
	s.Receive(replay)
	if s.Result() == Success {
		t.Fatal("replayed response accepted")
	}
}

func TestCHAPHashVector(t *testing.T) {
	// MD5(0x01 | "secret" | 0x0102030405) — check determinism and
	// sensitivity to each input.
	a := chapHash(1, []byte("secret"), []byte{1, 2, 3, 4, 5})
	b := chapHash(1, []byte("secret"), []byte{1, 2, 3, 4, 5})
	if string(a) != string(b) || len(a) != 16 {
		t.Fatal("hash not deterministic or wrong size")
	}
	if string(chapHash(2, []byte("secret"), []byte{1, 2, 3, 4, 5})) == string(a) {
		t.Error("id not mixed in")
	}
	if string(chapHash(1, []byte("Secret"), []byte{1, 2, 3, 4, 5})) == string(a) {
		t.Error("secret not mixed in")
	}
	if string(chapHash(1, []byte("secret"), []byte{1, 2, 3, 4, 6})) == string(a) {
		t.Error("challenge not mixed in")
	}
}

func TestResultString(t *testing.T) {
	if pending.String() != "pending" || Success.String() != "success" || Failure.String() != "failure" {
		t.Error("strings")
	}
}
