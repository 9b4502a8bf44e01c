package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/flight"
	"repro/internal/ppp"
	"repro/internal/telemetry"
)

// appendFrame appends one wire frame of proto under the default framing.
func appendFrame(dst []byte, proto uint16, payload []byte) []byte {
	h := ppp.Config{}.Header(proto)
	return h.Append(dst, payload, false)
}

func TestDumpCaptureAnnotatesFrames(t *testing.T) {
	// Build a wire stream of two clean PPP frames, wrap it in a capture
	// file, and check the decoder re-frames and annotates both.
	wire := appendFrame(nil, ppp.ProtoIPv4, []byte{0x45, 0, 0, 4, 0xDE, 0xAD, 0xBE, 0xEF, 1, 2})
	wire = appendFrame(wire, ppp.ProtoLCP, []byte{1, 1, 0, 4})

	c := &flight.Capture{
		Link: "a", Reason: "fcs-burst", Seq: 3, Now: 1234, WallNs: 42,
		RxBase: 100, RxWire: wire,
		Events: []telemetry.Event{{Seq: 1, At: 1200, Scope: "flight:a", Name: "fcs-burst", V1: 8, V2: 128}},
		Regs:   []flight.RegSample{{Name: "rx_frames", Value: 7}},
	}
	dir := t.TempDir()
	if err := c.WriteFile(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, c.Filename())

	var out bytes.Buffer
	if err := dumpCapture(&out, path, 32); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"link=a reason=fcs-burst seq=3 now=1234",
		"rx_frames",
		"fcs-burst",
		"rx wire: ", "stream offset 100",
		"proto=IPv4 payload=10",
		"proto=LCP payload=4",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "tx wire") {
		t.Errorf("a transmit wire section in a recorder that taps only receive:\n%s", got)
	}
}

func TestDumpCaptureAnnotatesDamage(t *testing.T) {
	// A truncated ring start and a corrupted FCS must be annotated, not
	// dropped silently.
	wire := appendFrame(nil, ppp.ProtoIPv4, []byte{1, 2, 3, 4})
	bad := appendFrame(nil, ppp.ProtoIPv4, []byte{5, 6, 7, 8})
	bad[5] ^= 0xFF // damage inside the body: FCS check fails
	// Start mid-frame: drop the opening flag and first body octets.
	stream := append(append(wire[4:], bad...), 0x7E)

	c := &flight.Capture{Link: "z", Reason: "oam", RxWire: stream}
	dir := t.TempDir()
	if err := c.WriteFile(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, c.Filename())
	var out bytes.Buffer
	if err := dumpCapture(&out, path, 32); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "damaged:") && !strings.Contains(got, "undecodable:") {
		t.Errorf("damage not annotated:\n%s", got)
	}
}

func TestDumpCaptureRejectsGarbage(t *testing.T) {
	p := filepath.Join(t.TempDir(), "junk.p5fr")
	if err := writeTestFile(p, []byte("not a capture")); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := dumpCapture(&out, p, 32); err == nil {
		t.Fatal("garbage file decoded without error")
	}
}

func writeTestFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// TestRunRejectsUnknownFigure: -fig other than 5 or 6 exits 2 with the
// message on stderr, and is refused before -vcd creates its file, so no
// empty dump is left behind or reported as written.
func TestRunRejectsUnknownFigure(t *testing.T) {
	vcd := filepath.Join(t.TempDir(), "trace.vcd")
	var out, errb bytes.Buffer
	if code := run([]string{"-fig", "7", "-vcd", vcd}, &out, &errb); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if out.Len() != 0 {
		t.Errorf("stdout %q, want nothing", out.String())
	}
	if !strings.Contains(errb.String(), "-fig must be 5 or 6") {
		t.Errorf("stderr %q", errb.String())
	}
	if _, err := os.Stat(vcd); !os.IsNotExist(err) {
		t.Errorf("the VCD file exists after a rejected -fig (stat: %v)", err)
	}
}

// TestRunTracesBothFigures: -fig 5 with -vcd and -fig 6 exit 0, and the
// dump holds the traced signals.
func TestRunTracesBothFigures(t *testing.T) {
	vcd := filepath.Join(t.TempDir(), "trace.vcd")
	for _, args := range [][]string{{"-fig", "5", "-vcd", vcd}, {"-fig", "6"}} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, errb.String())
		}
		if !strings.Contains(out.String(), "Figure "+args[1]) {
			t.Errorf("%v: no figure header in %q", args, out.String())
		}
	}
	dump, err := os.ReadFile(vcd)
	if err != nil || !bytes.Contains(dump, []byte("resync_occupancy")) {
		t.Errorf("VCD dump: %v, %d octets without the traced signals", err, len(dump))
	}
}

// TestJoinCaptures: -join merges two capture files that share an
// incident into one timeline under its incident header, and refuses a
// pair that does not share one, or a number of files other than two.
func TestJoinCaptures(t *testing.T) {
	write := func(c *flight.Capture) string {
		dir := t.TempDir()
		if err := c.WriteFile(dir); err != nil {
			t.Fatal(err)
		}
		return filepath.Join(dir, c.Filename())
	}
	a := write(&flight.Capture{Link: "port0_a", Reason: "transport-los", Seq: 1, Now: 1000, Incident: 0xBEEF,
		Events: []telemetry.Event{{Seq: 1, At: 990, Scope: "supervisor", Name: "raise", Detail: "los"}}})
	b := write(&flight.Capture{Link: "port0_z", Reason: "transport-los", Seq: 1, Now: 1210, Incident: 0xBEEF,
		FromPeer: true, TickOffset: -200,
		Events: []telemetry.Event{{Seq: 9, At: 1195, Scope: "supervisor", Name: "raise", Detail: "los"}}})
	other := write(&flight.Capture{Link: "port1_z", Reason: "transport-los", Seq: 1, Now: 1210, Incident: 0xDEAD})

	var out, errb bytes.Buffer
	if code := run([]string{"-join", a, b}, &out, &errb); code != 0 {
		t.Fatalf("-join exited %d: %s", code, errb.String())
	}
	lines := strings.Split(out.String(), "\n")
	if lines[0] != "joined captures "+a+" + "+b || len(lines) < 2 || lines[1] != "incident 000000000000beef" {
		t.Errorf("-join output does not open with the files and the incident header:\n%s", out.String())
	}
	for _, want := range []string{"port0_a", "port0_z", "tick delta (B-A) +200"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-join output missing %q:\n%s", want, out.String())
		}
	}
	for _, args := range [][]string{{"-join", a, other}, {"-join", a}} {
		out.Reset()
		errb.Reset()
		if code := run(args, &out, &errb); code != 1 || errb.Len() == 0 {
			t.Errorf("p5trace %v exited %d, stderr %q; want 1 and the reason", args, code, errb.String())
		}
	}
}
