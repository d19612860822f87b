package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Handler returns the daemon's HTTP API:
//
//	POST /api/v1/jobs            submit a spec (202, or 400/429/503)
//	GET  /api/v1/jobs            list jobs
//	GET  /api/v1/jobs/{id}       one job's state
//	GET  /api/v1/jobs/{id}/events  SSE stream (history replay + live)
//	GET  /healthz                liveness
//
// Mount it next to obs.Handler to expose /metrics and /statusz on the same
// listener.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// decodeSpec is the one strict decoder of a submitted spec: at most 1 MiB
// of JSON, no field the Spec does not declare. w, when non-nil, is told to
// close the connection of an oversized body.
func decodeSpec(w http.ResponseWriter, body io.ReadCloser) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, body, 1<<20))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(w, r.Body)
	if err != nil {
		mJobsRejected.At(rejInvalid).Inc()
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("decoding spec: %v", err))
		return
	}
	v, err := s.Submit(spec)
	if err != nil {
		rej, ok := err.(*RejectError)
		if !ok {
			writeErr(w, http.StatusInternalServerError, err.Error())
			return
		}
		if rej.RetryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(int(rej.RetryAfter/time.Second)))
		}
		writeJSON(w, rej.Code, map[string]string{"error": rej.Err.Error(), "reason": rej.Reason})
		return
	}
	writeJSON(w, http.StatusAccepted, v)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.Jobs()})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	v, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// handleEvents streams a job's events as SSE: full history first (late
// subscribers replay the whole story), then live until the job reaches a
// terminal state or the client goes away.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	hist, live, cancel, ok := s.Subscribe(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	defer cancel()
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	for _, ev := range hist {
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, ev.Data)
	}
	fl.Flush()
	if live == nil {
		return // job already terminal: history was the whole story
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-live:
			if !ok {
				return
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, ev.Data)
			fl.Flush()
		}
	}
}
