package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/crc"
	"repro/internal/flight"
	"repro/internal/hdlc"
	"repro/internal/ppp"
)

// dumpCapture decodes a flight-recorder black-box file (.p5fr): the
// trigger metadata, the register snapshot, the trace events leading up
// to the trigger, and the captured receive wire re-tokenized into
// annotated HDLC frames.
func dumpCapture(w io.Writer, path string, fcsBits int) error {
	c, err := flight.ReadFile(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "capture %s\n", path)
	fmt.Fprintf(w, "  link=%s reason=%s seq=%d now=%d wall=%s\n",
		c.Link, c.Reason, c.Seq, c.Now,
		time.Unix(0, c.WallNs).UTC().Format(time.RFC3339Nano))
	if len(c.Regs) > 0 {
		fmt.Fprintln(w, "registers:")
		for _, r := range c.Regs {
			fmt.Fprintf(w, "  %-24s %d\n", r.Name, r.Value)
		}
	}
	fmt.Fprintf(w, "events: %d\n", len(c.Events))
	for _, e := range c.Events {
		fmt.Fprintln(w, " ", e.String())
	}
	dumpWire(w, c.RxBase, c.RxWire, fcsBits)
	return nil
}

// dumpWire re-runs frame delineation over a captured raw octet stream.
// The ring usually starts mid-frame, so the first token is often
// damaged — that is annotated, not hidden.
func dumpWire(w io.Writer, base uint64, wire []byte, fcsBits int) {
	if len(wire) == 0 {
		fmt.Fprintln(w, "rx wire: empty")
		return
	}
	fmt.Fprintf(w, "rx wire: %d octets from stream offset %d\n", len(wire), base)
	cfg := ppp.Config{AnyAddress: true}
	if fcsBits == 16 {
		cfg.FCS = crc.FCS16Mode
	}
	var tk hdlc.Tokenizer
	for i, t := range tk.Feed(nil, wire) {
		switch {
		case t.Err != nil:
			fmt.Fprintf(w, "  frame %3d: %4d octets  damaged: %v\n", i, len(t.Body), t.Err)
		default:
			var f ppp.Frame
			if err := ppp.DecodeBodyInto(&f, t.Body, cfg); err != nil {
				fmt.Fprintf(w, "  frame %3d: %4d octets  undecodable: %v\n", i, len(t.Body), err)
				continue
			}
			fmt.Fprintf(w, "  frame %3d: %4d octets  proto=%s payload=%d%s\n",
				i, len(t.Body), protoName(f.Protocol), len(f.Payload), payloadPreview(f.Payload))
		}
	}
}

func protoName(p uint16) string {
	switch p {
	case ppp.ProtoIPv4:
		return "IPv4"
	case ppp.ProtoIPv6:
		return "IPv6"
	case ppp.ProtoVJC:
		return "VJ-comp"
	case ppp.ProtoVJU:
		return "VJ-uncomp"
	case ppp.ProtoIPCP:
		return "IPCP"
	case ppp.ProtoLCP:
		return "LCP"
	case ppp.ProtoPAP:
		return "PAP"
	case ppp.ProtoLQR:
		return "LQR"
	case ppp.ProtoCHAP:
		return "CHAP"
	}
	return fmt.Sprintf("0x%04X", p)
}

// payloadPreview shows the first few payload octets so a capture reads
// like a protocol trace without drowning in hex.
func payloadPreview(p []byte) string {
	if len(p) == 0 {
		return ""
	}
	n := len(p)
	ell := ""
	if n > 8 {
		n, ell = 8, " ..."
	}
	return fmt.Sprintf("  [% X%s]", p[:n], ell)
}
