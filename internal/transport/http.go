package transport

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"
)

// StatusBoard aggregates named transports behind the /health and
// /status endpoints of a telemetry mux. Registration is concurrency-
// safe; the handlers only call Up and Stats, which every transport
// guarantees safe against its owner goroutine.
type StatusBoard struct {
	mu    sync.Mutex
	ts    map[string]LineTransport
	start time.Time
	info  BoardInfo
}

// BoardInfo is the process-identity block of the /status document —
// what a fleet scraper needs to tell instances apart and spot version
// skew before it bites: when the process started, which P5LT wire
// version it speaks, and which observability subsystems are armed.
type BoardInfo struct {
	// Start is the process start time, RFC 3339.
	Start string `json:"start"`
	// UptimeSeconds is seconds since Start, computed per request.
	UptimeSeconds int64 `json:"uptime_seconds"`
	// WireVersion is the P5LT header version this build speaks.
	WireVersion int `json:"wire_version"`
	// FlightArmed reports whether flight recorders are armed.
	FlightArmed bool `json:"flight_armed"`
	// ProfArmed reports whether the runtime profiler harness is armed.
	ProfArmed bool `json:"prof_armed"`
	// LatencyTracing reports whether wire-level latency tracing is
	// active (true whenever a socket transport carries the line — the
	// v2 header always stamps ticks and sampled wall clocks).
	LatencyTracing bool `json:"latency_tracing"`
}

// NewStatusBoard returns an empty board stamped with the current time
// as process start.
func NewStatusBoard() *StatusBoard {
	return &StatusBoard{
		ts:    make(map[string]LineTransport),
		start: time.Now(),
		info:  BoardInfo{WireVersion: WireVersion},
	}
}

// Add registers t under name (replacing any previous holder).
func (b *StatusBoard) Add(name string, t LineTransport) {
	b.mu.Lock()
	b.ts[name] = t
	b.mu.Unlock()
}

// SetInfo records which observability subsystems the process armed
// (shown under /status "info"). Start, uptime and wire version are
// filled by the board itself.
func (b *StatusBoard) SetInfo(flightArmed, profArmed, latencyTracing bool) {
	b.mu.Lock()
	b.info.FlightArmed = flightArmed
	b.info.ProfArmed = profArmed
	b.info.LatencyTracing = latencyTracing
	b.mu.Unlock()
}

// namedTransport is one registered transport under its name.
type namedTransport struct {
	name string
	t    LineTransport
}

// snapshot returns the registered transports in name order.
func (b *StatusBoard) snapshot() []namedTransport {
	b.mu.Lock()
	out := make([]namedTransport, 0, len(b.ts))
	for n, t := range b.ts {
		out = append(out, namedTransport{n, t})
	}
	b.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// TransportStatus is one transport's entry in the /status document.
type TransportStatus struct {
	Name  string `json:"name"`
	Up    bool   `json:"up"`
	Stats Stats  `json:"stats"`
	// Latency is the transport's latency snapshot when it measures one
	// (socket transports; absent for pipes).
	Latency *Latency `json:"latency,omitempty"`
}

// StatusDoc is the /status response body.
type StatusDoc struct {
	Healthy    bool              `json:"healthy"`
	Info       BoardInfo         `json:"info"`
	Transports []TransportStatus `json:"transports"`
}

// status assembles the current status document.
func (b *StatusBoard) status() StatusDoc {
	b.mu.Lock()
	info := b.info
	start := b.start
	b.mu.Unlock()
	info.Start = start.UTC().Format(time.RFC3339)
	info.UptimeSeconds = int64(time.Since(start) / time.Second)

	doc := StatusDoc{Healthy: true, Info: info}
	for _, e := range b.snapshot() {
		up := e.t.Up()
		if !up {
			doc.Healthy = false
		}
		ts := TransportStatus{
			Name:  e.name,
			Up:    up,
			Stats: e.t.Stats(),
		}
		if lm, ok := e.t.(LatencyMeter); ok {
			if oneWay, _, _ := lm.LatencyHist(); oneWay != nil {
				lat := lm.Latency()
				ts.Latency = &lat
			}
		}
		doc.Transports = append(doc.Transports, ts)
	}
	return doc
}

// Mount wires /health (200 when every transport is up, 503 otherwise)
// and /status (the JSON document) onto mux.
func (b *StatusBoard) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/health", func(w http.ResponseWriter, r *http.Request) {
		doc := b.status()
		w.Header().Set("Content-Type", "application/json")
		if !doc.Healthy {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(map[string]bool{"healthy": doc.Healthy})
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(b.status())
	})
}
