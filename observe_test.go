package gigapos

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/aps"
	"repro/internal/flight"
	"repro/internal/p5"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/transport"
)

// TestObserveOrderFree: a protected line's selector hook has three
// subscribers — the link's own failover/capture step (wired by
// NewTransportPort), the aps_* series and the host's OAM block — and the
// outcome of one scripted working-line cut must not depend on whether
// the host attached its OAM before or after the pair was observed. (The recorder
// the OAM's flight block takes exists only after Observe, so that
// attach is always last.)
func TestObserveOrderFree(t *testing.T) {
	type outcome struct {
		intStat           uint32
		apsSwitches       float64
		switchEvents      int // the link's "aps-switch", in the tracer
		controllerEvents  int // the controller's "switch", in the tracer
		captures          uint64
		captureFiles      int
		failoverInCapture bool
	}
	run := func(t *testing.T, observeFirst bool) outcome {
		p := newProtectedPair(t)
		reg, tr, dir := telemetry.NewRegistry(), telemetry.NewTracer(256), t.TempDir()
		o := Observation{Registry: reg, Tracer: tr, Flight: &flight.Config{Dir: dir}}
		oam := &p5.OAM{Regs: p5.NewRegs()}
		var w Watch
		if observeFirst {
			w.ObservePair(o, "prot", p.a, p.b)
		}
		oam.AttachAPS(p.lb.Ctrl)
		if !observeFirst {
			w.ObservePair(o, "prot", p.a, p.b)
		}
		oam.AttachFlight(p.b.Link.Flight(), w.SLOs["prot_z"])
		oam.Write(p5.RegIntMask, p5.IntAPSSwitch|p5.IntFlightDump)

		for i := 0; i < 30; i++ {
			p.tick()
		}
		if !p.a.Link.IPReady() || !p.b.Link.IPReady() {
			t.Fatal("links did not open on the clean pair")
		}
		p.impair(aps.Working, zeroFrame)
		for i := 0; i < 40; i++ {
			p.tick()
		}
		if p.lb.Ctrl.Active() != aps.Protect {
			t.Fatal("the cut did not move b's selector")
		}

		var out outcome
		out.intStat = oam.Read(p5.RegIntStat)
		out.apsSwitches = seriesValues(reg)[`aps_switches_total{link="prot_z"}`]
		for _, e := range tr.Events() {
			switch {
			case e.Scope == "link:prot_z" && e.Name == "aps-switch":
				out.switchEvents++
			case e.Scope == "aps:prot_z" && e.Name == "switch":
				out.controllerEvents++
			}
		}
		out.captures = p.b.Link.Flight().CapturesFor("aps-switch")
		files, _ := filepath.Glob(filepath.Join(dir, "prot_z-*-aps-switch.p5fr"))
		out.captureFiles = len(files)
		for _, c := range p.b.Link.Flight().Recent() {
			for _, e := range c.Events {
				out.failoverInCapture = out.failoverInCapture || e.Name == "aps-switch"
			}
		}
		return out
	}

	want := outcome{
		intStat:     p5.IntAPSSwitch | p5.IntFlightDump,
		apsSwitches: 1, switchEvents: 1, controllerEvents: 1,
		captures: 1, captureFiles: 1, failoverInCapture: true,
	}
	for name, observeFirst := range map[string]bool{"observe-then-attach": true, "attach-then-observe": false} {
		t.Run(name, func(t *testing.T) {
			if got := run(t, observeFirst); got != want {
				t.Errorf("outcome %+v, want %+v", got, want)
			}
		})
	}
}

// TestObserveNilIsOff: the zero Observation on every end and every line
// kind arms nothing and allocates nothing (so no selector declared a
// mirror), and each field is independent of the
// others — a recorder armed with no Registry (p5sim -protect -flight DIR
// without -telemetry) still records, captures and grades its SLO.
func TestObserveNilIsOff(t *testing.T) {
	ring, err := topo.NewRing(topo.Config{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	port, _, err := ring.AddCircuit(topo.Circuit{Name: "c0", A: 0, B: 2})
	if err != nil {
		t.Fatal(err)
	}
	la, lz := aps.NewProtectedPair()
	pa, pz := NewTransportPort(NewLink(LinkConfig{}), la), NewTransportPort(NewLink(LinkConfig{}), lz)
	ta, _ := transport.NewPipePair()
	ends := map[string]Observable{
		"Link":                    NewLink(LinkConfig{}),
		"TransportPort/pipe":      NewTransportPort(NewLink(LinkConfig{}), ta),
		"TransportPort/protected": pa,
		"TransportPort/ring":      NewTransportPort(NewLink(LinkConfig{}), port),
	}
	for kind, end := range ends {
		if n := testing.AllocsPerRun(10, func() { end.Observe(Observation{}, "off") }); n != 0 {
			t.Errorf("%s: the zero Observation allocates %.0f times, want 0", kind, n)
		}
		if l := end.endpoint(); l.Flight() != nil || l.tel != nil || l.prof != nil {
			t.Errorf("%s: the zero Observation armed something: flight=%v tel=%v prof=%v", kind, l.Flight(), l.tel, l.prof)
		}
	}
	var off Watch
	if off.ObservePair(Observation{}, "off", pa, pz); off.SLOs != nil || off.Profile != nil {
		t.Errorf("the zero Observation on a pair filled its Watch: %+v", off)
	}

	// Flight alone.
	p := newProtectedPair(t)
	dir := t.TempDir()
	var w Watch
	w.ObservePair(Observation{Flight: &flight.Config{Dir: dir}}, "prot", p.a, p.b)
	if p.a.Link.tel != nil {
		t.Error("Flight alone armed the protocol series")
	}
	for i := 0; i < 30; i++ {
		p.tick()
	}
	p.impair(aps.Working, zeroFrame)
	payload := []byte{0x45, 0, 0, 20, 0, 0, 0, 0}
	for i := 0; i < 40; i++ {
		if p.a.Link.IPReady() {
			p.a.Link.SendIPv4(payload)
		}
		p.tick()
		p.b.Link.Received()
	}
	if ra := p.a.Link.Flight(); ra.Tracked() == 0 || ra.Tracked() == ra.Lost() {
		t.Errorf("a→z pipe did not record: tracked=%d lost=%d", ra.Tracked(), ra.Lost())
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "prot_z-*-aps-switch.p5fr")); len(files) != 1 {
		t.Errorf("aps-switch capture files of prot_z = %v, want 1", files)
	}
	slo := w.SLOs["prot_z"]
	if slo == nil || slo.WorstBurnMilli() == 0 {
		t.Errorf("prot_z's SLO did not grade the cut: %+v", w.SLOs)
	}
}

// TestObserveGradesBothDirections: one SLO rule. Every pair, however it
// was built, grades each end on what it receives — <pair>_a and <pair>_z
// — and an observed engine arms its ports as any other pair is armed, so
// the card's per-port protocol series are on /metrics too.
func TestObserveGradesBothDirections(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := NewEngine(EngineConfig{Links: 3, Shards: 2, PayloadSize: 128, Batch: 2})
	defer e.Close()
	w := e.Observe(Observation{Registry: reg, Flight: &flight.Config{}}, "card")
	if !e.BringUp(512).Ready {
		t.Fatal("engine bring-up failed")
	}
	e.Run(32)
	// Port i is port<i> whichever shard owns it (the old per-shard walk
	// numbered recorders in shard order, the transports in port order).
	for i := 0; i < 3; i++ {
		a, z := e.Port(i)
		if got, want := a.Flight().Name()+" "+z.Flight().Name(), fmt.Sprintf("port%d_a port%d_z", i, i); got != want {
			t.Errorf("Port(%d) records as %q, want %q", i, got, want)
		}
	}

	p := newProtectedPair(t)
	var pw Watch
	pw.ObservePair(Observation{Registry: reg, Flight: &flight.Config{}}, "prot", p.a, p.b)

	var names []string
	for _, slos := range []map[string]*flight.SLO{w.SLOs, pw.SLOs} {
		var keys []string
		for name := range slos {
			keys = append(keys, name)
		}
		sort.Strings(keys)
		names = append(names, keys...)
	}
	if got, want := strings.Join(names, " "), "port0_a port0_z port1_a port1_z port2_a port2_z prot_a prot_z"; got != want {
		t.Errorf("graded ends = %q, want %q", got, want)
	}
	snap := seriesValues(reg)
	for _, end := range []string{"port0_a", "port0_z", "port2_a", "port2_z"} {
		if _, ok := snap[`slo_worst_burn_rate{slo="`+end+`"}`]; !ok {
			t.Errorf(`slo_worst_burn_rate{slo=%q} not registered`, end)
		}
		// Both directions carry the engine's traffic, so both are graded
		// on real frames.
		if v := snap[`flight_frames_tracked_total{link="`+end+`"}`]; v == 0 {
			t.Errorf("%s tracked no departures", end)
		}
		if v, ok := snap[`link_ipcp_state{link="`+end+`"}`]; !ok || v == 0 {
			t.Errorf(`link_ipcp_state{link=%q} = %v (present=%v): the card's per-port protocol series are missing`, end, v, ok)
		}
	}
}
