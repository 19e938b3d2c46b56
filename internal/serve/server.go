package serve

import (
	"embed"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"

	"silo/internal/telemetry"
)

//go:embed static
var staticFS embed.FS

// Server hosts the run manager behind an HTTP API plus the embedded
// dashboard.
//
//	GET  /                    dashboard
//	GET  /healthz             liveness
//	GET  /metrics             Prometheus text exposition
//	GET  /api/presets         parameter presets
//	GET  /api/runs            all runs
//	POST /api/runs            start a run (Params JSON body)
//	GET  /api/runs/{id}       one run
//	GET  /api/runs/{id}/events  live telemetry over SSE
//	POST /api/runs/{id}/crash   pull the plug (body: {"node":n} for clusters)
//	POST /api/runs/{id}/stop    graceful stop (sim runs)
type Server struct {
	mgr        *Manager
	mux        *http.ServeMux
	sseClients atomic.Int64
}

// NewServer builds a server over a fresh run manager.
func NewServer() *Server {
	s := &Server{mgr: NewManager(), mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /api/presets", s.handlePresets)
	s.mux.HandleFunc("GET /api/runs", s.handleListRuns)
	s.mux.HandleFunc("POST /api/runs", s.handleStartRun)
	s.mux.HandleFunc("GET /api/runs/{id}", s.handleGetRun)
	s.mux.HandleFunc("GET /api/runs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("POST /api/runs/{id}/crash", s.handleCrash)
	s.mux.HandleFunc("POST /api/runs/{id}/stop", s.handleStop)
	s.mux.HandleFunc("GET /{$}", s.handleIndex)
	return s
}

// Manager exposes the run table (tests).
func (s *Server) Manager() *Manager { return s.mgr }

// Handler returns the root http.Handler.
func (s *Server) Handler() http.Handler { return s.mux }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	http.ServeFileFS(w, r, staticFS, "static/index.html")
}

func (s *Server) handlePresets(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, Presets())
}

func (s *Server) handleListRuns(w http.ResponseWriter, _ *http.Request) {
	runs := s.mgr.Runs()
	infos := make([]Info, 0, len(runs))
	for _, r := range runs {
		infos = append(infos, r.Info())
	}
	writeJSON(w, http.StatusOK, infos)
}

func (s *Server) handleStartRun(w http.ResponseWriter, r *http.Request) {
	var p Params
	if r.Body != nil {
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&p); err != nil && err.Error() != "EOF" {
			writeError(w, http.StatusBadRequest, "bad params: %v", err)
			return
		}
	}
	run, err := s.mgr.Start(p)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, run.Info())
}

func (s *Server) run(w http.ResponseWriter, r *http.Request) (*Run, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad run id %q", r.PathValue("id"))
		return nil, false
	}
	run, ok := s.mgr.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no run %d", id)
		return nil, false
	}
	return run, true
}

func (s *Server) handleGetRun(w http.ResponseWriter, r *http.Request) {
	if run, ok := s.run(w, r); ok {
		writeJSON(w, http.StatusOK, run.Info())
	}
}

func (s *Server) handleCrash(w http.ResponseWriter, r *http.Request) {
	run, ok := s.run(w, r)
	if !ok {
		return
	}
	var body struct {
		Node *int `json:"node"`
	}
	if r.Body != nil {
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil && err.Error() != "EOF" {
			writeError(w, http.StatusBadRequest, "bad crash body: %v", err)
			return
		}
	}
	node := -1
	if body.Node != nil {
		node = *body.Node
	}
	if err := run.Crash(node); err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, run.Info())
}

func (s *Server) handleStop(w http.ResponseWriter, r *http.Request) {
	run, ok := s.run(w, r)
	if !ok {
		return
	}
	if err := run.Stop(); err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, run.Info())
}

// handleMetrics renders the Prometheus exposition: server-level series
// plus the final per-commit metrics of every terminal run, labeled by
// run id, kind, design and workload. Output is byte-stable for a given
// set of finished runs (snapshots are name-sorted, runs id-sorted).
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	runs := s.mgr.Runs()
	var active, dropped, events int64
	snaps := make([]telemetry.LabeledSnapshot, 0, len(runs)+1)
	server := []telemetry.MetricValue{
		{Name: "serve_runs_started", Kind: "counter", Value: s.mgr.Started()},
		{Name: "serve_sse_clients", Kind: "gauge", Value: s.sseClients.Load(), Max: s.sseClients.Load()},
	}
	for _, r := range runs {
		if !r.Terminal() {
			active++
		}
		dropped += int64(r.Sink().Drops())
		events += int64(r.Sink().Seq())
	}
	server = append(server,
		telemetry.MetricValue{Name: "serve_runs_active", Kind: "gauge", Value: active, Max: active},
		telemetry.MetricValue{Name: "serve_live_events", Kind: "counter", Value: events},
		telemetry.MetricValue{Name: "serve_live_dropped_events", Kind: "counter", Value: dropped},
	)
	snaps = append(snaps, telemetry.LabeledSnapshot{Metrics: server})
	for _, r := range runs {
		if !r.Terminal() {
			continue // still running; its machine is written by the engine
		}
		snap := r.MetricsSnapshot()
		info := r.Info()
		labels := []telemetry.Label{
			{Name: "run", Value: strconv.Itoa(info.ID)},
			{Name: "kind", Value: info.Kind},
			{Name: "design", Value: info.Params.Design},
			{Name: "workload", Value: info.Params.Workload},
			{Name: "state", Value: info.State},
		}
		snaps = append(snaps, telemetry.LabeledSnapshot{Labels: labels, Metrics: snap})
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = telemetry.WriteMetrics(w, "silo_", snaps)
}
