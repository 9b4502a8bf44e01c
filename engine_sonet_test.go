package gigapos

import (
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/sonet"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// TestEngineOverSONET is the line card behind its PHY: eight supervised
// link pairs, each on an STM-16 sonet.Line pair handed to the engine
// through EngineConfig.Transport — engine.go and transport_port.go know
// nothing of SONET. Clean, every datagram offered is delivered, a step
// allocates nothing and no queue holds more than a frame carries. A
// scripted line cut on one section turns that line's Up false, which
// TransportPort.Poll escalates as one transport-los outage on that port
// alone; the supervisor re-opens it when the line returns. Stats and Up
// are scraped from a second goroutine throughout (go test -race), and
// the step loop holds the cut line down until that goroutine has seen
// it, so the check does not depend on the scheduler.
func TestEngineOverSONET(t *testing.T) {
	const links, batch, cutPort = 8, 8, 3
	var as, zs [links]*sonet.Line
	e := NewEngine(EngineConfig{
		Links: links, Shards: 2, PayloadSize: 512, Batch: batch,
		Link: LinkConfig{Supervise: true, RetryMin: 8, RetryMax: 64},
		Transport: func(port int) (a, z transport.LineTransport) {
			as[port], zs[port] = sonet.NewLinePair(sonet.STM16)
			return as[port], zs[port]
		},
	})
	defer e.Close()
	tr := telemetry.NewTracer(256)
	_, cutZ := e.Port(cutPort)
	cutZ.Observe(Observation{Registry: telemetry.NewRegistry(), Tracer: tr}, "cut_z")

	if bu := e.BringUp(1024); !bu.Ready {
		t.Fatalf("bring-up over SONET lines failed: %s", bu)
	}
	e.Run(32) // warm every queue and double buffer

	// Steady state: delivered == offered, nothing damaged, nothing
	// allocated, the send queues inside one frame's payload.
	before := e.Stats()
	const runs = 40
	if avg := testing.AllocsPerRun(runs, func() { e.Run(1) }); avg != 0 {
		t.Errorf("steady-state step over SONET allocates %.1f times, want 0", avg)
	}
	st := e.Stats()
	if got, want := st.Datagrams-before.Datagrams, uint64((runs+1)*links*2*batch); got != want || st.RxErrors != 0 {
		t.Errorf("delivered %d of %d datagrams, %d rx errors", got, want, st.RxErrors)
	}
	if ts := e.TransportStats(); ts.QueueHighWater == 0 || ts.QueueHighWater > sonet.STM16.PayloadBytes() || ts.TxDropped != 0 {
		t.Errorf("send queues: high water %d octets (one frame carries %d), %d dropped",
			ts.QueueHighWater, sonet.STM16.PayloadBytes(), ts.TxDropped)
	}

	// A scraper, as a telemetry endpoint would: concurrent with the
	// shard workers that own the lines.
	stop := make(chan struct{})
	sawDown := make(chan struct{}) // closed when the scraper first sees a line down
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		down := false
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := range zs {
				_ = as[i].Stats()
				if !down && !zs[i].Up() && zs[i].Stats().RxChunks > 0 {
					down = true
					close(sawDown)
				}
			}
		}
	}()

	// Cut the a→z section of one port for 12 frame times.
	var script fault.Script
	script.LOS(int64(3*sonet.STM16.FrameBytes()), 12*sonet.STM16.FrameBytes())
	inj := fault.NewInjector(script)
	as[cutPort].Inject = inj.Apply
	healed, held := -1, false
	for i := 0; i < 200 && healed < 0; i++ {
		e.Run(1)
		if !held && !zs[cutPort].Up() {
			// The handshake: between Runs nothing moves the lines, so the
			// cut stays visible until the scraper has looked. A minute is
			// only a backstop; the assertion below reports a miss.
			held = true
			select {
			case <-sawDown:
			case <-time.After(time.Minute):
			}
		}
		if inj.Done() && zs[cutPort].Up() && e.Ready() {
			healed = i
		}
	}
	close(stop)
	scraper.Wait()
	if healed < 0 {
		t.Fatalf("port %d did not re-open within 200 steps of the cut: %+v", cutPort, cutZ.Supervisor())
	}
	select {
	case <-sawDown:
	default:
		t.Error("the scraper never saw the cut line down")
	}

	var los, other int
	for _, ev := range tr.Events() {
		switch ev.Name {
		case "transport-los":
			los++
		case "defect-outage":
			other++
		}
	}
	if sup := cutZ.Supervisor(); los != 1 || other != 0 || sup.DefectOutages != 1 || sup.Recoveries < 1 {
		t.Errorf("cut port z: %d transport-los, %d defect-outage events, supervisor %+v; want exactly one transport-los outage and a recovery",
			los, other, sup)
	}
	for i := 0; i < links; i++ {
		a, z := e.Port(i)
		if i == cutPort {
			// The far end's receive line stayed clean: it renegotiates
			// when z re-opens, but it never saw a defect itself.
			if a.Supervisor().DefectOutages != 0 {
				t.Errorf("port %d a: %d defect outages on a clean receive line", i, a.Supervisor().DefectOutages)
			}
			continue
		}
		for end, l := range map[string]*Link{"a": a, "z": z} {
			if sup := l.Supervisor(); sup.Restarts != 0 || sup.DefectOutages != 0 || !l.IPReady() {
				t.Errorf("port %d %s disturbed by another port's line cut: %+v", i, end, sup)
			}
		}
	}

	// The healed port carries traffic again at the full rate.
	e.Run(4)
	before = e.Stats()
	e.Run(8)
	if got, want := e.Stats().Datagrams-before.Datagrams, uint64(8*links*2*batch); got != want {
		t.Errorf("after the heal: delivered %d of %d datagrams", got, want)
	}
}
