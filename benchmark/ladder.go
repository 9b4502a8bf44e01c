package main

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"time"

	gigapos "repro"
	"repro/internal/crc"
	"repro/internal/hdlc"
	"repro/internal/ppp"
)

// The layers under Link cannot be timed from outside a Link call, so
// the traced pass replays the same datagrams through them standalone —
// crc, the fused PPP encoder, the fused tokenizer, the PPP header
// decode — and subtracts: adjacent rungs differ by one layer's cost.

// accm is the map every workload transmits with: a default Link pair
// negotiates the SONET/SDH map (escape only flag and escape octets), and
// it is the P5 register file's reset value. checkReplay holds the ladder
// to what Link.Output really produces.
const accm = hdlc.ACCMNone

// pppHeader is the uncompressed address/control/protocol head of an
// IPv4 frame (neither ACFC nor PFC is negotiated by the workloads).
var pppHeader = []byte{ppp.AddrAllStations, ppp.CtrlUI, byte(ppp.ProtoIPv4 >> 8), byte(ppp.ProtoIPv4 & 0xFF)}

// encodeBatch appends the wire form of b exactly as Link.SendIPv4Batch
// followed by Output produces it.
func encodeBatch(dst []byte, b [][]byte) []byte {
	for _, d := range b {
		dst = ppp.AppendFramed(dst, pppHeader, d, crc.FCS32Mode, accm, true)
	}
	return dst
}

// checkReplay asserts that the ladder replays the identical octets: the
// pair's wire output for b equals the standalone encoding.
func checkReplay(a, z *gigapos.Link, b [][]byte) error {
	if _, err := a.SendIPv4Batch(b); err != nil {
		return err
	}
	wire := a.Output()
	ok := bytes.Equal(wire, encodeBatch(nil, b))
	z.Input(wire)
	z.ReceivedInto(nil)
	if !ok {
		return fmt.Errorf("ladder replay differs from the %d wire octets Link.Output produced", len(wire))
	}
	return nil
}

// ladder replays one pool through the codec rungs. A cycle is one pass
// over the whole pool — every cycle is the same octets, so the fastest
// cycle is an unbiased best case — and the traced pass runs one cycle per
// round, so the rungs and the spans they are subtracted from meet the
// same states of the host.
type ladder struct {
	frames [][]byte
	batch  int

	tk   hdlc.Tokenizer
	wire []byte
	toks []hdlc.Token

	bodyOctets, wireOctets   float64 // per cycle; body is what the FCS covers plus the FCS
	crcNS, encNS, tokNS, dec float64 // fastest cycle of each rung, ns
	tokenErrs                float64 // in the last cycle
}

func newLadder(frames [][]byte, batch int) *ladder {
	l := &ladder{frames: frames, batch: batch, tk: hdlc.Tokenizer{FCS: crc.FCS32Mode}}
	l.crcNS, l.encNS, l.tokNS, l.dec = math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)
	for _, d := range frames {
		l.bodyOctets += float64(len(pppHeader) + len(d) + crc.FCS32Mode.Bytes())
	}
	return l
}

var crcSink uint32 // keeps the crc rung's result alive

// cycle runs the pool once through crc, then once through encode,
// tokenize and decode interleaved batch by batch the way a Link pair
// interleaves them, so each stage finds the cache as it would in place.
func (l *ladder) cycle() {
	t0 := time.Now()
	for _, d := range l.frames {
		fcs := crc.FCS32Mode.Update(crc.FCS32Mode.Init(), pppHeader)
		crcSink += crc.FCS32Mode.Update(fcs, d)
	}
	l.crcNS = min(l.crcNS, float64(time.Since(t0)))

	var enc, tok, dec time.Duration
	var f ppp.Frame
	l.wireOctets, l.tokenErrs = 0, 0
	for i := 0; i < len(l.frames); i += l.batch {
		t0 := time.Now()
		l.wire = encodeBatch(l.wire[:0], l.frames[i:i+l.batch])
		t1 := time.Now()
		l.toks = l.tk.Feed(l.toks[:0], l.wire)
		t2 := time.Now()
		for j := range l.toks {
			if l.toks[j].Err != nil || !l.toks[j].FCSOK ||
				ppp.DecodeVerifiedBodyInto(&f, l.toks[j].Body, ppp.Config{}) != nil {
				l.tokenErrs++
			}
		}
		t3 := time.Now()
		enc, tok, dec = enc+t1.Sub(t0), tok+t2.Sub(t1), dec+t3.Sub(t2)
		l.wireOctets += float64(len(l.wire))
		if len(l.toks) != l.batch {
			l.tokenErrs++
		}
	}
	l.encNS, l.tokNS, l.dec = min(l.encNS, float64(enc)), min(l.tokNS, float64(tok)), min(l.dec, float64(dec))
}

// perFrame returns the fastest cycle's encode, tokenize and decode cost
// per frame.
func (l *ladder) perFrame() (enc, tok, dec float64) {
	n := float64(len(l.frames))
	return l.encNS / n, l.tokNS / n, l.dec / n
}

// report adds the rungs and the exact counts on one cycle's wire octets.
func (l *ladder) report(m map[string]float64) {
	enc, tok, dec := l.perFrame()
	m["crc.update_ns_per_byte"] = l.crcNS / (l.bodyOctets - float64(len(l.frames)*crc.FCS32Mode.Bytes()))
	m["ppp.encode_ns_per_byte"] = l.encNS / l.bodyOctets
	m["ppp.encode_ns_per_frame"] = enc
	m["hdlc.tokenize_ns_per_byte"] = l.tokNS / l.wireOctets
	m["hdlc.tokenize_ns_per_frame"] = tok
	m["ppp.decode_ns_per_frame"] = dec
	m["hdlc.token_errors"] = l.tokenErrs

	var escapes, short float64
	for i := 0; i < len(l.frames); i += l.batch {
		l.wire = encodeBatch(l.wire[:0], l.frames[i:i+l.batch])
		escapes += float64(bytes.Count(l.wire, []byte{hdlc.Escape}))
		for p := l.wire; len(p) > 0; {
			n := hdlc.DelimiterSpan(p)
			if n < 8 {
				short += float64(n)
			}
			p = p[min(n+1, len(p)):]
		}
	}
	m["hdlc.escape_ratio"] = escapes / l.bodyOctets
	m["hdlc.short_span_share"] = short / l.wireOctets
}

// linkReplay is the per-frame cost of the three Link calls.
type linkReplay struct{ send, input, drain float64 }

// replayLink times SendIPv4Batch+Output, Input and ReceivedInto on
// engineLinks negotiated pairs carrying frames as one batch each — the
// engine's working set without the engine — stage by stage, so clock
// reads stay a small share of each timed stage.
func replayLink(frames [][]byte, cfg config) (linkReplay, error) {
	type pair struct{ a, z *gigapos.Link }
	pairs := make([]pair, engineLinks)
	for i := range pairs {
		pairs[i].a, pairs[i].z = newPair()
		if _, err := bringUp(pairs[i].a, pairs[i].z); err != nil {
			return linkReplay{}, err
		}
	}
	wires := make([][]byte, len(pairs))
	var rx []gigapos.Datagram
	var send, input, drain []float64
	per := float64(len(pairs) * len(frames))
	for end := time.Now().Add(cfg.replay); len(send) < 64 || time.Now().Before(end); {
		t0 := time.Now()
		for i, p := range pairs {
			if _, err := p.a.SendIPv4Batch(frames); err != nil {
				return linkReplay{}, err
			}
			wires[i] = p.a.Output()
		}
		t1 := time.Now()
		for i, p := range pairs {
			p.z.Input(wires[i])
		}
		t2 := time.Now()
		got := 0
		for _, p := range pairs {
			rx = p.z.ReceivedInto(rx[:0])
			got += len(rx)
		}
		t3 := time.Now()
		if got != len(pairs)*len(frames) {
			return linkReplay{}, fmt.Errorf("link replay drained %d frames, sent %d", got, len(pairs)*len(frames))
		}
		send = append(send, float64(t1.Sub(t0))/per)
		input = append(input, float64(t2.Sub(t1))/per)
		drain = append(drain, float64(t3.Sub(t2))/per)
	}
	return linkReplay{slices.Min(send), slices.Min(input), slices.Min(drain)}, nil
}
