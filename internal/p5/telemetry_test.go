package p5

import (
	"testing"

	"repro/internal/ppp"
	"repro/internal/telemetry"
)

// TestInstrumentedSyncZeroAlloc pins the probe design BenchmarkSystem
// gates: once a system is instrumented, the periodic mirror refresh
// (counter taps, gauge taps, busy watches, kernel wire mirrors) runs
// without touching the allocator, so instrumentation cost is a few
// atomic stores — not garbage.
func TestInstrumentedSyncZeroAlloc(t *testing.T) {
	sys := NewSystem(1)
	sys.Instrument(telemetry.NewRegistry())
	// Real traffic first so every tap reads nonzero, post-warm-up state.
	sys.Send(TxJob{Protocol: ppp.ProtoIPv4, Payload: make([]byte, 512)})
	if !sys.RunUntilIdle(1_000_000) {
		t.Fatal("system did not drain")
	}
	if allocs := testing.AllocsPerRun(100, sys.SyncTelemetry); allocs != 0 {
		t.Errorf("SyncTelemetry allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestInstrumentedIdleCycleZeroAlloc covers the in-loop path: idle
// cycles spanning several telemetrySyncInterval boundaries must not
// allocate either — the sync hook rides System.Cycle, so a leak here
// would tax every instrumented run per cycle, not per scrape.
func TestInstrumentedIdleCycleZeroAlloc(t *testing.T) {
	sys := NewSystem(1)
	sys.Instrument(telemetry.NewRegistry())
	sys.Send(TxJob{Protocol: ppp.ProtoIPv4, Payload: make([]byte, 512)})
	if !sys.RunUntilIdle(1_000_000) {
		t.Fatal("system did not drain")
	}
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 4*telemetrySyncInterval; i++ {
			sys.Cycle()
		}
	})
	if allocs != 0 {
		t.Errorf("instrumented idle cycles allocate %.1f allocs per 4 sync intervals, want 0", allocs)
	}
}

// TestInstrumentRefusesSecondSystem: one registry takes one system per
// prefix. A second system instrumented under the same prefix would run
// its own sync loop into the first one's series, each overwriting the
// other; the mirror refuses at wiring time instead.
func TestInstrumentRefusesSecondSystem(t *testing.T) {
	reg := telemetry.NewRegistry()
	NewSystem(1).Instrument(reg)
	defer func() {
		if recover() == nil {
			t.Error("second system instrumented into the same series without a panic")
		}
	}()
	NewSystem(1).Instrument(reg)
}
