// The HTTP ops plane: the handler a coordinator or worker serves under
// -status-addr. Endpoints:
//
//	/healthz     200 "ok" — liveness for load balancers and smoke jobs
//	/metrics     Prometheus text exposition of a registry
//	/status      JSON snapshot of the process's sweep state
//	/debug/pprof pprof profiles, only when enabled (-pprof)
//
// The ops plane is strictly read-only and strictly outside the
// determinism boundary: handlers only snapshot state, never mutate it.
package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// StatusFunc builds the /status payload: any JSON-marshalable value,
// snapshotted per request. It must be safe for concurrent use.
type StatusFunc func() any

// NewOpsHandler assembles the ops mux over reg and status. A nil
// status serves a minimal {"status":"up"} payload; enablePprof mounts
// net/http/pprof under /debug/pprof/.
func NewOpsHandler(reg *Registry, status StatusFunc, enablePprof bool) http.Handler {
	if status == nil {
		status = func() any { return map[string]string{"status": "up"} }
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", TextContentType)
		reg.WriteText(w)
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		data, err := json.MarshalIndent(status(), "", "  ")
		if err != nil {
			http.Error(w, fmt.Sprintf("marshaling status: %v", err), http.StatusInternalServerError)
			return
		}
		w.Write(append(data, '\n'))
	})
	if enablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// OpsServer is one running ops listener.
type OpsServer struct {
	lis net.Listener
	srv *http.Server
}

// StartOps listens on addr and serves h in a background goroutine.
// addr may use port 0; Addr reports the bound address.
func StartOps(addr string, h http.Handler) (*OpsServer, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: status listener on %s: %w", addr, err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(lis)
	return &OpsServer{lis: lis, srv: srv}, nil
}

// Addr reports the bound listen address.
func (s *OpsServer) Addr() string { return s.lis.Addr().String() }

// Close tears the listener and all connections down.
func (s *OpsServer) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
