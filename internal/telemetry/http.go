package telemetry

import (
	"net"
	"net/http"
	"net/http/pprof"
)

// Mux builds the exposition endpoint set over a registry and an
// optional tracer:
//
//	/metrics       Prometheus text format: the one state document
//	/debug/pprof/  the standard Go profiling endpoints
//	/trace         the tracer's retained events as JSON (404 when nil)
//
// The returned mux is safe to serve while probes are being written:
// all metric state is atomic. It is a concrete *http.ServeMux so
// callers can mount additional endpoints (p5sim's /health on a socket
// half, for example) next to the standard set before serving.
func Mux(reg *Registry, tr *Tracer) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		if tr == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		tr.WriteJSON(w)
	})
	return mux
}

// Server is a running exposition endpoint.
type Server struct {
	// Addr is the bound listen address (useful with ":0").
	Addr string

	srv *http.Server
}

// ServeHandler starts an HTTP server for an arbitrary handler —
// typically a Mux(reg, tr) with extra endpoints mounted — on addr
// (":0" picks a free port). It returns once the listener is bound;
// serving continues in a background goroutine until Close.
func ServeHandler(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{Addr: ln.Addr().String(), srv: &http.Server{Handler: h}}
	go s.srv.Serve(ln)
	return s, nil
}

// Close stops the server and releases the listener.
func (s *Server) Close() error { return s.srv.Close() }
