package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"
)

// Server is the HTTP face of a Registry.
//
// Data path:
//
//	GET  /v1/programs/{name}/query?q=RECORD      single-column, curl-friendly
//	POST /v1/programs/{name}/query               {"query": "..."} or {"row": [...]}
//	POST /v1/programs/{name}/batch               {"queries": [...]} or {"rows": [[...]]}
//
// Admin and operations:
//
//	GET    /v1/programs                          list programs with stats
//	POST   /v1/programs/{name}                   register or hot-swap a program
//	DELETE /v1/programs/{name}                   remove a program
//	POST   /v1/programs/{name}/rows              append reference rows in place
//	DELETE /v1/programs/{name}/rows              tombstone reference rows by index
//	POST   /v1/programs/{name}/compact           force a compaction round
//	GET    /healthz                              liveness
//	GET    /readyz                               readiness (startup programs loaded)
//	GET    /metrics                              Prometheus text format
type Server struct {
	reg   *Registry
	mux   *http.ServeMux
	ready atomic.Bool
}

// NewServer wires the handlers around a registry.
func NewServer(reg *Registry) *Server {
	s := &Server{reg: reg, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/programs", s.handlePrograms)
	s.mux.HandleFunc("POST /v1/programs/{name}", s.handleRegister)
	s.mux.HandleFunc("DELETE /v1/programs/{name}", s.handleRemove)
	s.mux.HandleFunc("POST /v1/programs/{name}/rows", s.handleAddRows)
	s.mux.HandleFunc("DELETE /v1/programs/{name}/rows", s.handleRemoveRows)
	s.mux.HandleFunc("POST /v1/programs/{name}/compact", s.handleCompact)
	s.mux.HandleFunc("GET /v1/programs/{name}/query", s.handleQueryGet)
	s.mux.HandleFunc("POST /v1/programs/{name}/query", s.handleQueryPost)
	s.mux.HandleFunc("POST /v1/programs/{name}/batch", s.handleBatch)
	return s
}

// Handler returns the root handler (mountable under a higher-level mux).
func (s *Server) Handler() http.Handler { return s.mux }

// SetReady flips the /readyz answer; the daemon calls it once the
// startup programs are registered.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// queryRequest is the POST body of the single-query endpoint. Exactly
// one of Query and Row is set: Query is sugar for a one-cell row.
type queryRequest struct {
	Query *string  `json:"query,omitempty"`
	Row   []string `json:"row,omitempty"`
}

func (q queryRequest) row() ([]string, error) {
	switch {
	case q.Query != nil && q.Row != nil:
		return nil, errors.New(`body sets both "query" and "row"; pick one`)
	case q.Query != nil:
		return []string{*q.Query}, nil
	case q.Row != nil:
		return q.Row, nil
	}
	return nil, errors.New(`body needs "query" (single-column) or "row" (multi-column)`)
}

// queryResponse is the JSON answer of the data path.
//
//autofj:layout-ok field order is the JSON key order clients and golden tests observe; wire stability beats 8 bytes on a per-request struct
type queryResponse struct {
	Match     bool    `json:"match"`
	Left      int     `json:"left"`
	LeftValue string  `json:"left_value,omitempty"`
	Distance  float64 `json:"distance,omitempty"`
	Precision float64 `json:"precision,omitempty"`
	Config    int     `json:"config"`
	Cached    bool    `json:"cached"`
}

func toResponse(res QueryResult) queryResponse {
	return queryResponse{
		Match:     res.OK,
		Left:      res.Match.Left,
		LeftValue: res.LeftValue,
		Distance:  res.Match.Distance,
		Precision: res.Match.Precision,
		Config:    res.Match.Config,
		Cached:    res.Cached,
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() {
		http.Error(w, "loading programs", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.Metrics().Write(w, time.Now())
	writePrograms(w, s.reg.Programs())
}

func (s *Server) handlePrograms(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"programs": s.reg.Programs()})
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var spec ProgramSpec
	if !decodeBody(w, r, maxRegisterBytes, "spec", &spec) {
		return
	}
	if spec.Name != "" && spec.Name != name {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("spec name %q conflicts with URL name %q", spec.Name, name))
		return
	}
	spec.Name = name
	if err := s.reg.Register(spec); err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	for _, info := range s.reg.Programs() {
		if info.Name == name {
			writeJSON(w, http.StatusOK, info)
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"name": name})
}

func (s *Server) handleRemove(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.reg.Remove(name) {
		writeError(w, http.StatusNotFound, ErrUnknownProgram)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"removed": name})
}

func (s *Server) handleQueryGet(w http.ResponseWriter, r *http.Request) {
	if !r.URL.Query().Has("q") {
		writeError(w, http.StatusBadRequest, errors.New("missing query parameter q"))
		return
	}
	s.answer(w, r, []string{r.URL.Query().Get("q")})
}

func (s *Server) handleQueryPost(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !decodeBody(w, r, maxRequestBytes, "query", &req) {
		return
	}
	row, err := req.row()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.answer(w, r, row)
}

func (s *Server) answer(w http.ResponseWriter, r *http.Request, row []string) {
	res, err := s.reg.Query(r.Context(), r.PathValue("name"), row)
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, toResponse(res))
}

// batchRequestBody is the POST body of the batch endpoint; like the
// single-query body, "queries" is sugar for one-cell rows.
type batchRequestBody struct {
	Queries []string   `json:"queries,omitempty"`
	Rows    [][]string `json:"rows,omitempty"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequestBody
	if !decodeBody(w, r, maxRequestBytes, "batch", &req) {
		return
	}
	rows := req.Rows
	if req.Queries != nil {
		if rows != nil {
			writeError(w, http.StatusBadRequest, errors.New(`body sets both "queries" and "rows"; pick one`))
			return
		}
		rows = make([][]string, len(req.Queries))
		for i, q := range req.Queries {
			rows[i] = []string{q}
		}
	}
	results, err := s.reg.QueryBatch(r.Context(), r.PathValue("name"), rows)
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	out := make([]queryResponse, len(results))
	for i, res := range results {
		out[i] = toResponse(res)
	}
	writeJSON(w, http.StatusOK, map[string]any{"results": out})
}

// rowsRequest is the body of the row-append endpoint; like the batch
// body, "records" is sugar for one-cell rows.
type rowsRequest struct {
	Records []string   `json:"records,omitempty"`
	Rows    [][]string `json:"rows,omitempty"`
}

func (s *Server) handleAddRows(w http.ResponseWriter, r *http.Request) {
	var req rowsRequest
	if !decodeBody(w, r, maxRequestBytes, "rows", &req) {
		return
	}
	rows := req.Rows
	if req.Records != nil {
		if rows != nil {
			writeError(w, http.StatusBadRequest, errors.New(`body sets both "records" and "rows"; pick one`))
			return
		}
		rows = make([][]string, len(req.Records))
		for i, rec := range req.Records {
			rows[i] = []string{rec}
		}
	}
	if len(rows) == 0 {
		writeError(w, http.StatusBadRequest, errors.New(`body needs "records" (single-column) or "rows" (multi-column)`))
		return
	}
	upd, err := s.reg.AddRows(r.PathValue("name"), rows)
	if err != nil {
		writeError(w, mutationStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, upd)
}

// removeRowsRequest is the body of the row-delete endpoint: the current
// dense indexes of the rows to drop (the Left values answers report),
// without duplicates.
type removeRowsRequest struct {
	Indices []int `json:"indices"`
}

func (s *Server) handleRemoveRows(w http.ResponseWriter, r *http.Request) {
	var req removeRowsRequest
	if !decodeBody(w, r, maxRequestBytes, "indices", &req) {
		return
	}
	if len(req.Indices) == 0 {
		writeError(w, http.StatusBadRequest, errors.New(`body needs "indices"`))
		return
	}
	upd, err := s.reg.RemoveRows(r.PathValue("name"), req.Indices)
	if err != nil {
		writeError(w, mutationStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, upd)
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	did, upd, err := s.reg.CompactNow(r.Context(), r.PathValue("name"))
	if err != nil {
		writeError(w, mutationStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"compacted":  did,
		"program":    upd.Program,
		"generation": upd.Generation,
		"records":    upd.Records,
		"delta_rows": upd.DeltaRows,
	})
}

// mutationStatus maps mutation errors to HTTP statuses: registry-level
// errors keep their usual mapping; anything else a table mutation
// reports is input validation (bad width, bad index) — a client error.
func mutationStatus(err error) int {
	if st := statusOf(err); st != http.StatusInternalServerError {
		return st
	}
	return http.StatusBadRequest
}

// statusOf maps query-path errors to HTTP statuses.
func statusOf(err error) int {
	var arity *ArityError
	switch {
	case errors.Is(err, ErrUnknownProgram):
		return http.StatusNotFound
	case errors.Is(err, ErrShuttingDown), errors.Is(err, ErrOverloaded):
		return http.StatusServiceUnavailable
	case errors.As(err, &arity):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// Request body limits. A registration may inline a whole reference table
// (left_csv), so it gets a larger cap than the data path and the row
// mutations, whose bodies are queries and rows.
const (
	maxRegisterBytes = 64 << 20
	maxRequestBytes  = 4 << 20
)

// decodeBody decodes the JSON body of r into v, reading at most limit
// bytes. On failure it writes the answer itself — 413 when the body is
// over the limit, 400 when it is not valid JSON for v — and returns
// false. An oversize body also closes the connection once the answer is
// written, so the unread rest is never parsed as a next request.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, what string, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	err := json.NewDecoder(r.Body).Decode(v)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("%s body exceeds %d bytes", what, limit))
	} else {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding %s: %w", what, err))
	}
	return false
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	if errors.Is(err, ErrOverloaded) {
		w.Header().Set("Retry-After", "1") // seconds; a table slot frees in milliseconds
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
