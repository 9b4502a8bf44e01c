package transport

import (
	"encoding/json"
	"net/http"

	"repro/internal/telemetry"
)

// Health answers /health from reg's transport_up series (Instrument):
// 200 while every line registered there is up (or none is), 503 once
// one is down. The body is {"healthy": bool}.
func Health(reg *telemetry.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		healthy := true
		for _, s := range reg.Series() {
			if s.Name == "transport_up" && s.Value != 1 {
				healthy = false
			}
		}
		w.Header().Set("Content-Type", "application/json")
		if !healthy {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(map[string]bool{"healthy": healthy})
	}
}
