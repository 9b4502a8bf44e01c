package transport

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// TestHealthReadsTransportUp: /health answers from the transport_up
// series of its registry — 200 with no line or every line up, 503 once
// one is down — and ignores every other series.
func TestHealthReadsTransportUp(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Gauge("transport_uptime", "not the liveness family").Set(0)
	get := func() (int, string) {
		rec := httptest.NewRecorder()
		Health(reg)(rec, httptest.NewRequest("GET", "/health", nil))
		return rec.Code, strings.TrimSpace(rec.Body.String())
	}
	if code, body := get(); code != http.StatusOK || body != `{"healthy":true}` {
		t.Fatalf("no lines: %d %s", code, body)
	}
	reg.Gauge("transport_up", "", telemetry.L("line", "port0_a")).Set(1)
	if code, body := get(); code != http.StatusOK || body != `{"healthy":true}` {
		t.Fatalf("one line up: %d %s", code, body)
	}
	down := reg.Gauge("transport_up", "", telemetry.L("line", "port1_a"))
	if code, body := get(); code != http.StatusServiceUnavailable || body != `{"healthy":false}` {
		t.Fatalf("port1_a down: %d %s, want 503", code, body)
	}
	down.Set(1)
	if code, _ := get(); code != http.StatusOK {
		t.Fatalf("both up again: %d", code)
	}
}
