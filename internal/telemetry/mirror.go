package telemetry

import "fmt"

// Mirror is the sync-mirror convention, declared once: hot-path state
// lives in plain fields written by exactly one goroutine, each exported
// series is an atomic registry metric, and Sync copies one into the
// other at whatever cadence the owner picks (a control tick, a Run
// barrier, every few hundred simulated cycles) — so a scrape on another
// goroutine never touches simulation state and the hot path never
// touches an atomic. Series are declared at wiring time; Sync allocates
// nothing.
//
// A series has at most one mirror. Two Sync loops storing into one
// counter silently overwrite each other, so Counter and Gauge panic on
// a series some mirror of the same registry already feeds, the way the
// registry panics on a kind mismatch: both are wiring bugs.
type Mirror struct {
	reg      *Registry
	counters []counterTap
	gauges   []gaugeTap
}

type counterTap struct {
	c    *Counter
	read func() uint64
}

type gaugeTap struct {
	g    *Gauge
	read func() int64
}

// Mirror starts an empty mirror set feeding series of r.
func (r *Registry) Mirror() *Mirror { return &Mirror{reg: r} }

// Registry returns the registry the mirror feeds, for the event-driven
// series (histograms, transition counters) an Instrument function
// registers beside its mirrors.
func (m *Mirror) Registry() *Registry { return m.reg }

// Counter declares a counter series refreshed from read on every Sync.
func (m *Mirror) Counter(name, help string, read func() uint64, labels ...Label) {
	m.reg.claim(name, labels)
	m.counters = append(m.counters, counterTap{m.reg.Counter(name, help, labels...), read})
}

// Gauge declares a gauge series refreshed from read on every Sync.
func (m *Mirror) Gauge(name, help string, read func() int64, labels ...Label) {
	m.reg.claim(name, labels)
	m.gauges = append(m.gauges, gaugeTap{m.reg.Gauge(name, help, labels...), read})
}

// Sync refreshes every declared series. Call it from the goroutine that
// owns the mirrored fields (or while it is quiescent). A nil Mirror —
// an uninstrumented owner — is a no-op.
func (m *Mirror) Sync() {
	if m == nil {
		return
	}
	for _, t := range m.counters {
		t.c.Set(t.read())
	}
	for _, t := range m.gauges {
		t.g.Set(t.read())
	}
}

// claim marks a series as fed by a mirror, refusing a second claim.
func (r *Registry) claim(name string, labels []Label) {
	key := seriesName(sanitizeName(name), labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.mirrored[key] {
		panic(fmt.Sprintf("telemetry: %s already has a sync-mirror", key))
	}
	if r.mirrored == nil {
		r.mirrored = make(map[string]bool)
	}
	r.mirrored[key] = true
}
