package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"hgw"
)

// Handler returns the daemon's HTTP API:
//
//	GET  /v1/experiments      registry metadata (hgw.RegistryInfo)
//	POST /v1/jobs             submit a Spec; 200 with the completed job
//	                          on a cache hit, 202 with the queued job
//	                          otherwise; 400 invalid spec, 429 queue
//	                          full, 503 shutting down
//	GET  /v1/jobs             every job, newest last (without results)
//	GET  /v1/jobs/{id}        one job, including its Results bytes
//	DELETE /v1/jobs/{id}      cancel one job; a coalesced subscriber
//	                          detaches without disturbing the shared
//	                          execution (404 unknown, 409 already
//	                          terminal)
//	GET  /v1/jobs/{id}/stream NDJSON: one hgw.DeviceEvent per device
//	                          row, streamed live while the job runs and
//	                          replayed verbatim for cached jobs
//	GET  /v1/stats            cache/memo/coalesce/queue/worker counters
//	GET  /metrics             Prometheus text exposition (see metrics.go)
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// writeJSON writes v compactly; compact output keeps a cached job's
// Results bytes verbatim in the response body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

func (s *Service) handleExperiments(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Experiments []hgw.ExperimentInfo `json:"experiments"`
	}{hgw.RegistryInfo()})
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{"bad job spec: " + err.Error()})
		return
	}
	job, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		// Retry-After tells well-behaved clients when the queue is
		// likely to have room again (see retryAfterSeconds).
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeJSON(w, http.StatusTooManyRequests, apiError{err.Error()})
		return
	case errors.Is(err, ErrStopped):
		writeJSON(w, http.StatusServiceUnavailable, apiError{err.Error()})
		return
	case err != nil: // unknown experiment id or otherwise invalid spec
		writeJSON(w, http.StatusBadRequest, apiError{err.Error()})
		return
	}
	code := http.StatusAccepted
	if job.Status().terminal() {
		code = http.StatusOK // cache hit: the job is already complete
	}
	writeJSON(w, code, job.Snapshot())
}

func (s *Service) handleJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	views := make([]View, len(jobs))
	for i, j := range jobs {
		views[i] = j.Snapshot()
		views[i].Results = nil // keep the listing light; fetch one job for bytes
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []View `json:"jobs"`
	}{views})
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{"unknown job " + r.PathValue("id")})
		return
	}
	writeJSON(w, http.StatusOK, job.Snapshot())
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, err := s.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrUnknownJob):
		writeJSON(w, http.StatusNotFound, apiError{"unknown job " + r.PathValue("id")})
		return
	case errors.Is(err, ErrJobTerminal):
		// Losing the race to completion is not an error worth retrying:
		// report the terminal snapshot with a conflict status.
		writeJSON(w, http.StatusConflict, job.Snapshot())
		return
	}
	writeJSON(w, http.StatusOK, job.Snapshot())
}

// handleStream writes the job's per-device fleet results as NDJSON,
// following the job live until it reaches a terminal state. Non-fleet
// jobs stream zero rows and close on completion.
func (s *Service) handleStream(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{"unknown job " + r.PathValue("id")})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	// Wake the blocked WaitEvents below when the client goes away, so
	// this goroutine exits instead of waiting out the job.
	stop := context.AfterFunc(r.Context(), job.Wake)
	defer stop()
	flusher, _ := w.(http.Flusher)
	sent := 0
	for {
		rows, terminal := job.WaitEvents(sent)
		if _, err := w.Write(rows); err != nil {
			return // client went away
		}
		sent += len(rows)
		if flusher != nil {
			flusher.Flush()
		}
		if terminal {
			return
		}
		if r.Context().Err() != nil {
			return
		}
	}
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
