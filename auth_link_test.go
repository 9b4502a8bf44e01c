package gigapos

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/auth"
	"repro/internal/hdlc"
	"repro/internal/ppp"
)

func TestLinkCHAPAuthentication(t *testing.T) {
	// a is the access server demanding CHAP; b dials in.
	a := NewLink(LinkConfig{Magic: 1, IPAddr: [4]byte{10, 0, 0, 1},
		Auth: AuthConfig{Require: AuthCHAP, Name: "server",
			Secrets: map[string]string{"bob": "hunter2"}}})
	b := NewLink(LinkConfig{Magic: 2, IPAddr: [4]byte{10, 0, 0, 2},
		Auth: AuthConfig{Identity: "bob", Secret: "hunter2"}})
	a.Open()
	b.Open()
	a.Up()
	b.Up()
	pump(t, a, b, 1000)
	if !a.Opened() || !b.Opened() {
		t.Fatal("LCP did not open")
	}
	if !a.IPReady() || !b.IPReady() {
		t.Fatal("network phase not reached after CHAP")
	}
	if a.auth.peer() != "bob" {
		t.Errorf("authenticated peer = %q", a.auth.peer())
	}
	// Data flows normally afterwards.
	if err := b.SendIPv4([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	pump(t, a, b, 100)
	if got := a.Received(); len(got) != 1 {
		t.Fatalf("received %d", len(got))
	}
}

func TestLinkPAPAuthentication(t *testing.T) {
	a := NewLink(LinkConfig{Magic: 1, IPAddr: [4]byte{10, 0, 0, 1},
		Auth: AuthConfig{Require: AuthPAP,
			Secrets: map[string]string{"alice": "pw1"}}})
	b := NewLink(LinkConfig{Magic: 2, IPAddr: [4]byte{10, 0, 0, 2},
		Auth: AuthConfig{Identity: "alice", Secret: "pw1"}})
	a.Open()
	b.Open()
	a.Up()
	b.Up()
	pump(t, a, b, 1000)
	if !a.IPReady() || !b.IPReady() {
		t.Fatal("network phase not reached after PAP")
	}
	if a.auth.peer() != "alice" {
		t.Errorf("peer = %q", a.auth.peer())
	}
}

func TestLinkAuthFailureTearsDown(t *testing.T) {
	a := NewLink(LinkConfig{Magic: 1, IPAddr: [4]byte{10, 0, 0, 1},
		Auth: AuthConfig{Require: AuthCHAP, Name: "server",
			Secrets: map[string]string{"bob": "hunter2"}}})
	b := NewLink(LinkConfig{Magic: 2, IPAddr: [4]byte{10, 0, 0, 2},
		Auth: AuthConfig{Identity: "bob", Secret: "WRONG"}})
	a.Open()
	b.Open()
	a.Up()
	b.Up()
	pump(t, a, b, 1000)
	if a.IPReady() || b.IPReady() {
		t.Fatal("network phase reached with bad credentials")
	}
	if a.AuthFailures == 0 {
		t.Error("failure not counted")
	}
	if a.Opened() {
		t.Error("authenticator should have closed the link")
	}
}

func TestLinkNoCredentialsGetsRejectedDemand(t *testing.T) {
	// b has no credentials at all: it rejects a's auth option; a's
	// policy keeps demanding (nak/rej loop ends in a's option being
	// dropped or the link stuck) — the link must not silently open the
	// network phase as authenticated.
	a := NewLink(LinkConfig{Magic: 1, IPAddr: [4]byte{10, 0, 0, 1},
		Auth: AuthConfig{Require: AuthCHAP, Name: "server",
			Secrets: map[string]string{"bob": "hunter2"}}})
	b := NewLink(LinkConfig{Magic: 2, IPAddr: [4]byte{10, 0, 0, 2}})
	a.Open()
	b.Open()
	a.Up()
	b.Up()
	pump(t, a, b, 1000)
	if a.auth.peer() != "" {
		t.Error("phantom authentication")
	}
	if a.IPReady() {
		t.Error("server must not reach network phase without auth")
	}
}

func TestLinkMutualCHAP(t *testing.T) {
	// Both sides demand CHAP of each other.
	a := NewLink(LinkConfig{Magic: 1, IPAddr: [4]byte{10, 0, 0, 1},
		Auth: AuthConfig{Require: AuthCHAP, Name: "east",
			Secrets:  map[string]string{"west": "w-secret"},
			Identity: "east", Secret: "e-secret"}})
	b := NewLink(LinkConfig{Magic: 2, IPAddr: [4]byte{10, 0, 0, 2},
		Auth: AuthConfig{Require: AuthCHAP, Name: "west",
			Secrets:  map[string]string{"east": "e-secret"},
			Identity: "west", Secret: "w-secret"}})
	a.Open()
	b.Open()
	a.Up()
	b.Up()
	pump(t, a, b, 1000)
	if !a.IPReady() || !b.IPReady() {
		t.Fatal("mutual CHAP did not complete")
	}
	if a.auth.peer() != "west" || b.auth.peer() != "east" {
		t.Errorf("peers: %q / %q", a.auth.peer(), b.auth.peer())
	}
}

// TestCHAPChallengesAreUnpredictable: two authenticators built from one
// config issue different first challenges. RFC 1994 §2.3 asks for
// challenges that are unique and unpredictable; one derived from the
// LCP magic, which the peer reads in clear, is neither.
func TestCHAPChallengesAreUnpredictable(t *testing.T) {
	srv := LinkConfig{Magic: 1, IPAddr: [4]byte{10, 0, 0, 1},
		Auth: AuthConfig{Require: AuthCHAP, Name: "server",
			Secrets: map[string]string{"bob": "hunter2"}}}
	cli := LinkConfig{Magic: 2, IPAddr: [4]byte{10, 0, 0, 2},
		Auth: AuthConfig{Identity: "bob", Secret: "hunter2"}}
	// firstChallenge brings a fresh pair up and returns the value of
	// the first CHAP Challenge the authenticator puts on the wire.
	firstChallenge := func() []byte {
		a, b := NewLink(srv), NewLink(cli)
		a.Open()
		b.Open()
		a.Up()
		b.Up()
		var tk hdlc.Tokenizer
		for i := 0; i < 100; i++ {
			out := a.Output()
			for _, tok := range tk.Feed(nil, out) {
				var f ppp.Frame
				if tok.Err != nil || ppp.DecodeBodyInto(&f, tok.Body, ppp.Config{ACCM: hdlc.ACCMAll}) != nil ||
					f.Protocol != auth.ProtoCHAP {
					continue
				}
				if p, err := auth.Parse(f.Payload); err == nil && p.Code == 1 && len(p.Data) > 0 {
					n := int(p.Data[0])
					return bytes.Clone(p.Data[1 : 1+n])
				}
			}
			b.Input(out)
			a.Input(b.Output())
		}
		t.Fatal("the authenticator sent no CHAP Challenge")
		return nil
	}
	c1, c2 := firstChallenge(), firstChallenge()
	if len(c1) == 0 || bytes.Equal(c1, c2) {
		t.Errorf("two authenticators from one config challenged with % x and % x", c1, c2)
	}
}

// TestChallengeFailsClosed: a CHAP challenge source that fails stops
// the link instead of handing out a zero octet the peer could predict,
// whatever toolchain builds it.
func TestChallengeFailsClosed(t *testing.T) {
	if got := challengeFrom(bytes.NewReader([]byte{0xA5})); got != 0xA5 {
		t.Fatalf("challengeFrom = %#x, want 0xa5", got)
	}
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "entropy gone") {
			t.Fatalf("recovered %v, want a panic naming the source's error", r)
		}
	}()
	challengeFrom(iotest.ErrReader(errors.New("entropy gone")))
	t.Fatal("challengeFrom returned on a failing source")
}
