package transport

import (
	"bytes"
	"math"
	"testing"
)

// These tests drive a bare session — no socket, no goroutine, no clock
// — with the records and ticks the socket tests put on a real wire, and
// check the same verdicts and counters. What holds here holds under
// both transports: they add only the I/O.

func bareSession(cfg Config) *session {
	s := new(session)
	s.init(cfg, true, 0x5E55)
	return s
}

// record builds one wire record the way a peer would.
func record(typ byte, epoch uint32, seq uint64, tick, wall int64, payload []byte) []byte {
	return append(appendHeader(nil, typ, len(payload), epoch, seq, tick, wall), payload...)
}

// feed decodes rec as the UDP reader does and hands the result to the
// session.
func feed(s *session, rec []byte, rxWall int64) (rxKind, peerEvent) {
	h, payload, derr := decodeDatagram(rec)
	return s.receive(h, payload, derr, rxWall)
}

// TestSessionKeepaliveDeadPeer is the socket-free twin of
// TestUDPKeepaliveDeadPeer, extended over the cycle an open-but-silent
// TCP peer goes through: traffic, silence, one dead verdict, a fresh
// connection with a full budget, silence, dead again.
func TestSessionKeepaliveDeadPeer(t *testing.T) {
	s := bareSession(Config{KeepalivePeriod: 4})
	now := int64(0)
	// run ticks n times and returns the probe and dead verdicts seen.
	run := func(n int) (probes, deads int) {
		for i := 0; i < n; i++ {
			now++
			s.tickNow = now
			probe, dead := s.keepalive(now)
			if probe {
				probes++
			}
			if dead {
				deads++
			}
		}
		return
	}

	if kind, ev := feed(s, record(typeData, 9, 1, 0, 0, []byte("hello")), 0); kind != rxData || ev != peerFirst {
		t.Fatalf("first record: kind=%d ev=%d", kind, ev)
	}
	if !s.alive {
		t.Fatal("not alive after traffic")
	}
	// The peer goes silent: keepalive gives up within
	// KeepalivePeriod*(keepaliveMisses+2) ticks, exactly once.
	probes, deads := run(4 * (keepaliveMisses + 2))
	if deads != 1 || s.alive {
		t.Fatalf("after silence: %d dead verdicts, alive=%v", deads, s.alive)
	}
	if probes == 0 || s.st.KeepaliveMisses < keepaliveMisses {
		t.Fatalf("probes=%d stats=%+v", probes, s.st)
	}
	if _, deads = run(16); deads != 0 {
		t.Fatalf("%d more dead verdicts for a peer already dead", deads)
	}

	// Traffic resumes: alive at once, and the miss run starts over.
	feed(s, record(typeData, 9, 2, 0, 0, []byte("again")), 0)
	if !s.alive {
		t.Fatal("not alive after traffic resumed")
	}
	if _, deads = run(4); deads != 0 {
		t.Fatal("dead one period after traffic")
	}

	// The TCP cycle: the shell drops the silent connection, re-dials,
	// and the replacement is presumed live with a full budget.
	run(16)
	s.revive()
	before := s.st.KeepaliveMisses
	_, deads = run(4 * (keepaliveMisses + 1))
	if deads != 1 || s.st.KeepaliveMisses-before != keepaliveMisses {
		t.Fatalf("revived connection: %d dead verdicts after %d misses, want 1 after %d",
			deads, s.st.KeepaliveMisses-before, keepaliveMisses)
	}

	// A muted line counts misses but asks for no probes.
	s.revive()
	s.Mute(true)
	if probes, _ = run(16); probes != 0 {
		t.Fatalf("%d probes asked of a muted line", probes)
	}
}

// TestSessionSeqDedup is the socket-free twin of TestUDPSeqDedup.
func TestSessionSeqDedup(t *testing.T) {
	s := bareSession(Config{})
	const epoch = 0xBEEF
	// seq 1, 2, 2 (dup), 4, 3 (reordered behind 4), 5.
	wantKind := []rxKind{rxData, rxData, rxDropped, rxData, rxDropped, rxData}
	for i, m := range []struct {
		seq uint64
		p   string
	}{{1, "s1"}, {2, "s2"}, {2, "s2-dup"}, {4, "s4"}, {3, "s3-stale"}, {5, "s5"}} {
		if kind, _ := feed(s, record(typeData, epoch, m.seq, 0, 0, []byte(m.p)), 0); kind != wantKind[i] {
			t.Fatalf("record %d (seq %d): kind %d, want %d", i, m.seq, kind, wantKind[i])
		}
	}
	got := s.Recv(nil)
	want := []string{"s1", "s2", "s4", "s5"}
	if len(got) != len(want) {
		t.Fatalf("delivered %q, want %v", got, want)
	}
	for i, c := range got {
		if string(c) != want[i] {
			t.Fatalf("delivered %q, want %v", got, want)
		}
	}
	if st := s.Stats(); st.RxDropped != 2 || st.RxChunks != 4 {
		t.Fatalf("stats: %+v, want 2 dropped (one dup, one stale) and 4 delivered", st)
	}
}

// TestSessionBadVersionRejected is the socket-free twin of
// TestUDPBadVersionRejected.
func TestSessionBadVersionRejected(t *testing.T) {
	s := bareSession(Config{})
	rec := record(typeData, 1, 1, 0, 0, []byte("hi"))
	rec[4] = 1 // the v1 header a stale peer would send
	if kind, ev := feed(s, rec, 0); kind != rxDropped || ev != peerSame {
		t.Fatalf("skewed record: kind=%d ev=%d", kind, ev)
	}
	st := s.Stats()
	if st.RxBadVersion != 1 || st.RxDropped != 1 {
		t.Fatalf("stats after version skew: %+v", st)
	}
	if s.alive || s.gotEpoch || len(s.Recv(nil)) != 0 {
		t.Fatal("skewed peer latched as alive")
	}
}

// TestSessionSteadyStateZeroAlloc: one warmed round of everything the
// session does per tick — build and recycle a data record, classify one
// and hand it to Recv, run the keepalive clock, build a probe and a
// reply — allocates nothing.
func TestSessionSteadyStateZeroAlloc(t *testing.T) {
	s := bareSession(Config{KeepalivePeriod: 1})
	payload := bytes.Repeat([]byte{0x7E}, 1500)
	in := record(typeData, 7, 0, 0, 1, payload)
	var sent, rcvd [][]byte
	now, seq := int64(0), uint64(0)
	round := func() {
		now++
		s.tickNow = now
		s.queueData(payload, now)
		sent = s.sq.drainInto(sent[:0], 0)
		for _, b := range sent {
			s.sq.put(b)
		}
		seq++
		in[19], in[18], in[17] = byte(seq), byte(seq>>8), byte(seq>>16)
		if kind, _ := feed(s, in, now); kind != rxData {
			t.Fatalf("seq %d: kind %d", seq, kind)
		}
		rcvd = s.Recv(rcvd[:0])
		if probe, _ := s.keepalive(now); probe {
			s.probe(now, now)
		}
		s.reply(1, 2, 3)
	}
	for i := 0; i < 64; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("steady-state session round allocates %.1f/op, want 0", allocs)
	}
}

// Fuzz op codes (the first octet of each op, mod opCount).
const (
	opRecord = iota
	opMute
	opTick
	opRecv
	opSendFreeze
	opCount
)

// recordOp encodes one opRecord: a record with every header field free,
// including a version other than wireVersion, a type past TypeFreeze
// and a declared length that disagrees with the payload carried.
func recordOp(ver, typ byte, epoch uint32, seq uint64, tick, wall, rxWall int64, declared int, payload []byte) []byte {
	b := []byte{opRecord, ver, typ, byte(epoch >> 24), byte(epoch >> 16), byte(epoch >> 8), byte(epoch)}
	b = appendBE64(b, seq)
	b = appendBE64(b, uint64(tick))
	b = appendBE64(b, uint64(wall))
	b = appendBE64(b, uint64(rxWall))
	b = append(b, byte(declared), byte(len(payload)))
	return append(b, payload...)
}

// dataOp is the common case of recordOp: a well-formed v2 data record.
func dataOp(epoch uint32, seq uint64, payload string) []byte {
	return recordOp(wireVersion, typeData, epoch, seq, 0, 0, 0, len(payload), []byte(payload))
}

func ops(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// FuzzSessionRecords drives a bare session with an op sequence decoded
// from the input — records with arbitrary headers, mute toggles, tick
// advances, Recv drains, outbound freezes — against a model of the
// delivery rule. It asserts no panic; that exactly the records the
// model admits are delivered, byte-identical, in order, with strictly
// increasing sequence inside an epoch run; that Recv's chunks outlive
// the next Recv; that every record fed is accounted exactly once
// (fed == RxChunks + control + RxDropped); that the latency counters
// match the stamped records admitted and its quantiles stay inside the
// histogram bounds whatever the stamps; and that every record the
// session builds decodes.
func FuzzSessionRecords(f *testing.F) {
	// Epoch flip mid-stream, and back: each flip restarts the cursor.
	f.Add(ops(dataOp(1, 1, "a1"), dataOp(1, 2, "a2"), dataOp(2, 1, "b1"), dataOp(2, 1, "b1-dup"),
		dataOp(1, 1, "a1-again"), []byte{opRecv}))
	// seq = 2^64-1, then the wrap: 0 and 1 are behind the cursor.
	f.Add(ops(dataOp(3, math.MaxUint64-1, "penultimate"), dataOp(3, math.MaxUint64, "last"),
		dataOp(3, 0, "wrapped-0"), dataOp(3, 1, "wrapped-1"), []byte{opRecv}))
	// Crossed freeze pings: both ends raise incident 7, the peer's
	// arrives twice (a retransmission), then a new incident.
	freeze := func(incident uint64) []byte {
		p := appendFreezePayload(nil, incident, 41, 1234, "transport-los")
		return recordOp(wireVersion, typeFreeze, 5, 0, 0, 0, 0, len(p), p)
	}
	f.Add(ops(dataOp(5, 1, "up"), []byte{opSendFreeze, 7}, freeze(7), []byte{opTick, 3}, freeze(7),
		freeze(8), []byte{opTick, 9}, []byte{opRecv}))
	// An NTP triple with t2 < t1 and stamps at the int64 limits, a probe
	// and a stamped data record at the limits too.
	ntp := appendKeepaliveReplyPayload(nil, math.MaxInt64, math.MinInt64, 0)
	f.Add(ops(recordOp(wireVersion, typeKeepaliveReply, 6, 0, math.MinInt64, 0, math.MinInt64, len(ntp), ntp),
		recordOp(wireVersion, typeKeepalive, 6, 0, math.MaxInt64, math.MinInt64, math.MaxInt64, 0, nil),
		recordOp(wireVersion, typeData, 6, 1, 0, math.MinInt64, math.MaxInt64, 2, []byte("ow")),
		recordOp(wireVersion, typeData, 6, 2, 0, math.MaxInt64, math.MinInt64, 2, []byte("ow")), []byte{opRecv}))
	// A v1 header between v2 records, a bad type, a short payload, and a
	// muted stretch.
	f.Add(ops(dataOp(4, 1, "v2"), recordOp(1, typeData, 4, 2, 0, 0, 0, 2, []byte("v1")), dataOp(4, 3, "v2"),
		recordOp(wireVersion, typeFreeze+1, 4, 4, 0, 0, 0, 0, nil),
		recordOp(wireVersion, typeData, 4, 5, 0, 0, 0, 9, []byte("short")),
		[]byte{opMute}, dataOp(4, 6, "dark"), []byte{opTick, 40}, []byte{opMute}, dataOp(4, 7, "light"), []byte{opRecv}))

	f.Fuzz(func(t *testing.T, in []byte) {
		s := bareSession(Config{KeepalivePeriod: 4})
		// take returns the next n input octets, zero-padded past the end.
		take := func(n int) []byte {
			b := make([]byte, n)
			in = in[copy(b, in):]
			return b
		}

		// The model: the peer cursor, what Recv owes, and the tallies.
		var (
			gotEpoch, muted          bool
			curEpoch                 uint32
			lastSeq                  uint64
			owed, prevGot, prevOwed  [][]byte
			fed, control, badVersion uint64
			oneWay, rtts             uint64
			runSeq                   uint64 // last seq delivered since the session last reported an epoch event
			lastIncident             uint64
			now                      int64
		)
		recv := func() {
			got := s.Recv(nil)
			if len(got) != len(owed) {
				t.Fatalf("Recv returned %d chunks, model owes %d", len(got), len(owed))
			}
			for i := range got {
				if !bytes.Equal(got[i], owed[i]) {
					t.Fatalf("chunk %d: got %q, fed %q", i, got[i], owed[i])
				}
			}
			for i := range prevGot {
				if !bytes.Equal(prevGot[i], prevOwed[i]) {
					t.Fatalf("chunk %d of the previous Recv changed under the next one", i)
				}
			}
			prevGot, prevOwed, owed = got, owed, nil
		}
		decodes := func(what string, rec []byte, typ byte) []byte {
			h, payload, err := decodeDatagram(rec)
			if err != nil || h.Type != typ || h.Epoch != s.epoch || headerLen+h.Len != len(rec) {
				t.Fatalf("%s does not decode: %+v %v", what, h, err)
			}
			return payload
		}

		for n := 0; len(in) > 0 && n < 4096; n++ {
			switch take(1)[0] % opCount {
			case opMute:
				muted = !muted
				s.Mute(muted)
			case opRecv:
				recv()
			case opSendFreeze:
				s.SendFreeze(FreezeInfo{Incident: uint64(take(1)[0]), Reason: "fuzz"})
			case opTick:
				for d := take(1)[0] % 64; d > 0; d-- {
					now++
					s.tickNow = now
					wasAlive := s.alive
					probe, dead := s.keepalive(now)
					if dead && (!wasAlive || s.alive) {
						t.Fatalf("dead verdict with alive %v -> %v", wasAlive, s.alive)
					}
					if probe {
						if muted {
							t.Fatal("probe asked of a muted line")
						}
						decodes("probe", s.probe(now, now), typeKeepalive)
					}
					if rec := s.dueFreeze(now, true); rec != nil {
						if _, _, _, _, err := decodeFreeze(decodes("freeze", rec, typeFreeze)); err != nil {
							t.Fatalf("freeze payload: %v", err)
						}
					}
				}
			case opRecord:
				// ver, typ, epoch, seq, tick, wall, rxWall, declared len, carried len.
				hd := take(40)
				payload := take(int(hd[39]))
				epoch := uint32(hd[2])<<24 | uint32(hd[3])<<16 | uint32(hd[4])<<8 | uint32(hd[5])
				seq, tick, wall, rxWall := be64(hd[6:]), int64(be64(hd[14:])), int64(be64(hd[22:])), int64(be64(hd[30:]))
				rec := appendHeader(nil, hd[1], int(hd[38]), epoch, seq, tick, wall)
				rec[4] = hd[0]
				rec = append(rec, payload...)

				h, body, derr := decodeDatagram(rec)
				kind, ev := s.receive(h, body, derr, rxWall)
				fed++
				want := rxControl
				switch {
				case muted:
					want = rxDropped
				case derr != nil:
					want = rxDropped
					if derr == errBadVersion {
						badVersion++
					}
				default:
					flip := !gotEpoch || epoch != curEpoch
					if flip != (ev != peerSame) {
						t.Fatalf("epoch %#x after %#x (known %v): event %d", epoch, curEpoch, gotEpoch, ev)
					}
					if flip {
						gotEpoch, curEpoch, lastSeq = true, epoch, 0
					}
					switch h.Type {
					case typeKeepalive:
						if wall != 0 {
							want = rxProbe
						}
					case typeKeepaliveReply:
						if len(body) >= keepaliveReplyLen {
							rtts++
						}
					case typeData:
						want = rxDropped
						if seq > lastSeq {
							want, lastSeq = rxData, seq
							owed = append(owed, append([]byte(nil), body...))
							if wall != 0 {
								oneWay++
							}
						}
					}
				}
				if kind != want {
					t.Fatalf("record %d (ver %d type %d epoch %#x seq %d, muted %v, derr %v): kind %d, want %d",
						fed, hd[0], hd[1], epoch, seq, muted, derr, kind, want)
				}
				if ev != peerSame {
					runSeq = 0
				}
				switch kind {
				case rxData:
					// The session's own verdicts, without the model.
					if seq <= runSeq {
						t.Fatalf("delivered seq %d after %d in one epoch run", seq, runSeq)
					}
					runSeq = seq
				case rxProbe:
					p := decodes("reply", s.reply(wall, rxWall, rxWall), typeKeepaliveReply)
					if t1, _, _, err := decodeKeepaliveReply(p); err != nil || t1 != wall {
						t.Fatalf("reply echoes t1=%d for probe wall %d (%v)", t1, wall, err)
					}
					control++
				case rxControl:
					control++
				}
				for _, fi := range s.Freezes(nil) {
					if fi.Incident == lastIncident {
						t.Fatalf("incident %d delivered twice running", fi.Incident)
					}
					lastIncident = fi.Incident
				}
			}
		}
		recv()

		st := s.Stats()
		if fed != st.RxChunks+control+st.RxDropped {
			t.Fatalf("fed %d != RxChunks %d + control %d + RxDropped %d", fed, st.RxChunks, control, st.RxDropped)
		}
		if st.RxBadVersion != badVersion || st.RxBadVersion > st.RxDropped {
			t.Fatalf("RxBadVersion %d (model %d), RxDropped %d", st.RxBadVersion, badVersion, st.RxDropped)
		}
		lat := s.Latency()
		if lat.Samples != oneWay || lat.RTTSamples != rtts {
			t.Fatalf("latency samples %d/%d, model %d/%d", lat.Samples, lat.RTTSamples, oneWay, rtts)
		}
		top := latencyBoundsUS[len(latencyBoundsUS)-1]
		for _, q := range []int64{lat.OneWayP50US, lat.OneWayP99US, lat.RTTP50US} {
			if q < 0 || q > top {
				t.Fatalf("latency quantile outside the histogram: %+v", lat)
			}
		}
	})
}
