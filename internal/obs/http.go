package obs

import (
	"net"
	"net/http"
)

// Handler returns an http.Handler serving the registry's Prometheus text
// exposition — mount it on /metrics.
func Handler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// The strict parser validates this output in tests and CI; an
		// encoding error mid-scrape can only be a broken connection.
		_ = reg.WritePrometheus(w)
	})
}

// ListenAndServe serves /metrics (and /) from the registry on addr in a
// background goroutine, returning the bound listener address (useful with
// ":0") or an error if the listen fails. The server runs for the life of
// the process — metrics endpoints have no orderly shutdown story in the
// CLI tools that mount them.
func ListenAndServe(addr string, reg *Registry) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(reg))
	srv := &http.Server{Handler: mux}
	// Process-lifetime metrics endpoint: the CLI exits by returning from
	// main, never by draining the server.
	go func() {
		_ = srv.Serve(ln)
	}()
	return ln.Addr().String(), nil
}
