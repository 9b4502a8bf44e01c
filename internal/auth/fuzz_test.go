package auth

import (
	"bytes"
	"testing"
)

// FuzzAuth feeds arbitrary bytes through Parse into all four ends of the
// authentication phase. Nothing may panic, every packet that parses
// survives Marshal and Parse unchanged, and a server reports Success
// only for an identity and secret its Secrets table holds.
func FuzzAuth(f *testing.F) {
	secrets := map[string]string{"alice": "s3cret"}
	rnd := func() byte { return 0x5A }
	challenge := bytes.Repeat([]byte{0x5A}, 16)
	response := append([]byte{16}, chapHash(1, []byte("s3cret"), challenge)...)
	for _, p := range []Packet{
		{Code: papRequest, ID: 1, Data: papCreds("alice", "s3cret")},
		{Code: papAck, ID: 1, Data: papText("welcome")},
		{Code: papNak, ID: 1, Data: papText("bad credentials")},
		{Code: chapChallenge, ID: 1, Data: append(append([]byte{16}, challenge...), "auth"...)},
		{Code: chapResponse, ID: 1, Data: append(response, "alice"...)},
		{Code: chapSuccess, ID: 1},
		{Code: chapFailure, ID: 1},
	} {
		f.Add(p.Marshal(nil))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := Parse(b)
		if err != nil {
			return
		}
		q, err := Parse(p.Marshal(nil))
		if err != nil || q.Code != p.Code || q.ID != p.ID || !bytes.Equal(q.Data, p.Data) {
			t.Fatalf("% x parsed to %+v, which re-parses to %+v, %v", b, p, q, err)
		}
		discard := func(*Packet) {}

		papSrv := &PAPServer{Secrets: secrets, Send: discard}
		papSrv.Receive(p)
		if papSrv.Result() == Success {
			id, pw, ok := parsePAPCreds(p.Data)
			if want, known := secrets[id]; !ok || !known || pw != want || papSrv.Peer != id {
				t.Fatalf("PAP server accepted %q/%q as %q", id, pw, papSrv.Peer)
			}
		}

		chapSrv := &CHAPServer{Name: "auth", Secrets: secrets, Rand: rnd, Send: discard}
		chapSrv.Challenge()
		chapSrv.Receive(p)
		if chapSrv.Result() == Success {
			want, known := secrets[chapSrv.Peer]
			vn := int(p.Data[0])
			if !known || !bytes.Equal(p.Data[1:1+vn], chapHash(p.ID, []byte(want), challenge)) {
				t.Fatalf("CHAP server accepted % x as %q", p.Data, chapSrv.Peer)
			}
		}

		papCli := &PAPClient{PeerID: "alice", Password: "s3cret", Send: discard}
		papCli.Start()
		papCli.Receive(p)
		(&CHAPClient{Name: "alice", Secret: "s3cret", Send: discard}).Receive(p)
	})
}
