package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/parallel"
	"repro/internal/pool"
	"repro/internal/xmltree"
)

// Options tunes a Server.
type Options struct {
	// MaxWorkers caps any single request's worker budget; 0 means one
	// worker per CPU (runtime.GOMAXPROCS).
	MaxWorkers int
	// AdminDir, when non-empty, restricts /admin/load to artifact
	// paths inside it; empty allows any path the process can read.
	AdminDir string
}

// Server serves match requests for the models in a Registry.
type Server struct {
	reg  *Registry
	opts Options
}

// NewServer wraps a registry.
func NewServer(reg *Registry, opts Options) *Server {
	if opts.MaxWorkers <= 0 {
		opts.MaxWorkers = runtime.GOMAXPROCS(0)
	}
	return &Server{reg: reg, opts: opts}
}

// MatchRequest is the JSON body of POST /v1/match and each element of
// a batch. The source arrives as its schema (DTD text) plus its data
// listings (XML text); either may carry any number of listings,
// including zero — tags without data match on their names alone.
type MatchRequest struct {
	// Model names the registry entry to match against.
	Model string `json:"model"`
	// FormatVersion, when nonzero, pins the artifact envelope version
	// the client was built against; a mismatch is refused with 409
	// rather than served with a model the client may misread.
	FormatVersion uint16 `json:"format_version,omitempty"`
	// SourceName labels the source in responses; optional.
	SourceName string `json:"source_name,omitempty"`
	// DTD is the source schema as DTD text.
	DTD string `json:"dtd"`
	// XML is the source's data listings as XML text.
	XML string `json:"xml,omitempty"`
	// Workers is this request's worker budget: 0 = serve serially,
	// n > 0 = up to n workers (clamped to the server's MaxWorkers).
	// The mapping is bit-identical at every setting.
	Workers int `json:"workers,omitempty"`
	// OmitPredictions drops the per-tag score distributions from the
	// response, keeping only the mapping.
	OmitPredictions bool `json:"omit_predictions,omitempty"`
}

// MatchResponse is the JSON reply to one match request.
type MatchResponse struct {
	Model       string                        `json:"model"`
	Checksum    string                        `json:"checksum"`
	SourceName  string                        `json:"source_name,omitempty"`
	Mapping     map[string]string             `json:"mapping"`
	Predictions map[string]map[string]float64 `json:"predictions,omitempty"`
	Partial     map[string]string             `json:"partial,omitempty"`
	// Degraded reports that the constraint handler ran out of search
	// budget or found no mapping satisfying every hard constraint, and
	// answered with its greedy fallback.
	Degraded bool   `json:"degraded,omitempty"`
	Error    string `json:"error,omitempty"`
	// Status carries the per-request HTTP-equivalent code inside batch
	// replies, where the outer response is 200 even if an element
	// failed.
	Status int `json:"status,omitempty"`
}

// BatchRequest is the JSON body of POST /v1/batch.
type BatchRequest struct {
	Requests []MatchRequest `json:"requests"`
	// Workers bounds how many requests run concurrently (clamped to
	// the server's MaxWorkers); 0 = one per CPU.
	Workers int `json:"workers,omitempty"`
}

// BatchResponse is the JSON reply to a batch: one response per request
// in request order.
type BatchResponse struct {
	Responses []MatchResponse `json:"responses"`
}

// LoadRequest is the JSON body of POST /admin/load.
type LoadRequest struct {
	// Path is the artifact file to load.
	Path string `json:"path"`
}

// ModelInfo is one entry of GET /v1/models.
type ModelInfo struct {
	Name          string   `json:"name"`
	FormatVersion uint16   `json:"format_version"`
	Checksum      string   `json:"checksum"`
	Labels        []string `json:"labels"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// statusClientClosedRequest is nginx's nonstandard 499: the client
// closed the connection before the server finished the reply. The
// stdlib defines no constant for it.
const statusClientClosedRequest = 499

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("POST /v1/match", s.handleMatch)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /admin/load", s.handleLoad)
	return mux
}

// respBufs pools the response-encoding buffers: every reply marshals
// into a pooled buffer (request-scoped, returned before the handler
// exits) and is written out in one shot with an exact Content-Length,
// instead of allocating an encoder chain per request.
var respBufs pool.Buffers

func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := respBufs.Get()
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		// Nothing has been written to the wire yet, so a marshal
		// failure can still be reported cleanly.
		respBufs.Put(buf)
		http.Error(w, "encoding response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	//lint:ignore errflow the status line is already written; a Write failure means the client is gone and there is no channel left to report on
	_, _ = w.Write(buf.Bytes())
	respBufs.Put(buf)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "models": s.reg.Len()})
}

func (s *Server) handleModels(w http.ResponseWriter, _ *http.Request) {
	models := s.reg.List()
	out := make([]ModelInfo, len(models))
	for i, m := range models {
		out[i] = ModelInfo{
			Name:          m.Name,
			FormatVersion: m.FormatVersion,
			Checksum:      m.Checksum,
			Labels:        m.Labels,
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"models": out})
}

// decodeBody strictly decodes a JSON body into v.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// Anything but white space after the value is trailing data. More
	// would not do: it reports false before a stray ']' or '}'.
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("unexpected data after JSON body")
	}
	return nil
}

func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	var req MatchRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	resp, status := s.match(r.Context(), s.reg.Snapshot(), &req)
	if status != http.StatusOK {
		writeError(w, status, "%s", resp.Error)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Requests) == 0 {
		writeError(w, http.StatusBadRequest, "batch has no requests")
		return
	}
	workers := req.Workers
	if workers > s.opts.MaxWorkers || workers <= 0 {
		workers = s.opts.MaxWorkers
	}
	// Fan the batch out across the worker pool under the request's
	// context: responses come back positionally, so the reply order
	// always mirrors request order, and a client disconnect cancels
	// the undispatched remainder instead of burning the pool on an
	// answer nobody will read. Every element resolves its model in the
	// one snapshot loaded here, so a reload mid-batch cannot make one
	// reply mix two versions of a model.
	snap := s.reg.Snapshot()
	responses, err := parallel.Map(r.Context(), workers, len(req.Requests),
		func(ctx context.Context, i int) (MatchResponse, error) {
			resp, status := s.match(ctx, snap, &req.Requests[i])
			resp.Status = status
			return resp, nil
		})
	if err != nil {
		// The task function never fails, so the only error here is the
		// context's: the client went away mid-batch.
		writeError(w, statusClientClosedRequest, "batch canceled: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, BatchResponse{Responses: responses})
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	var req LoadRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Path == "" {
		writeError(w, http.StatusBadRequest, "load request needs a path")
		return
	}
	if dir := s.opts.AdminDir; dir != "" && !pathInside(dir, req.Path) {
		writeError(w, http.StatusForbidden, "path %q is outside the served model directory", req.Path)
		return
	}
	m, err := s.reg.LoadFile(req.Path, 0)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "loading artifact: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, ModelInfo{
		Name:          m.Name,
		FormatVersion: m.FormatVersion,
		Checksum:      m.Checksum,
		Labels:        m.Labels,
	})
}

// match answers one request against the registry snapshot the handler
// loaded. It returns the response and an HTTP status. ctx is the HTTP
// request's context: a disconnected client cancels the match fan-out
// instead of burning workers on an answer nobody will read.
func (s *Server) match(ctx context.Context, snap Snapshot, req *MatchRequest) (MatchResponse, int) {
	fail := func(status int, format string, args ...any) (MatchResponse, int) {
		return MatchResponse{Error: fmt.Sprintf(format, args...)}, status
	}
	if req.Model == "" {
		return fail(http.StatusBadRequest, "request names no model")
	}
	m, ok := snap[req.Model]
	if !ok {
		return fail(http.StatusNotFound, "model %q is not loaded", req.Model)
	}
	if req.FormatVersion != 0 && req.FormatVersion != m.FormatVersion {
		return fail(http.StatusConflict, "model %q is at artifact format version %d, request pinned %d",
			req.Model, m.FormatVersion, req.FormatVersion)
	}
	if req.DTD == "" {
		return fail(http.StatusBadRequest, "request has no source DTD")
	}
	src, err := buildSource(req)
	if err != nil {
		return fail(http.StatusBadRequest, "%v", err)
	}
	workers := req.Workers
	if workers <= 0 {
		workers = 1
	}
	if workers > s.opts.MaxWorkers {
		workers = s.opts.MaxWorkers
	}
	res, err := m.System().WithWorkers(workers).Match(ctx, src)
	if err != nil {
		if ctx.Err() != nil {
			return fail(statusClientClosedRequest, "matching canceled: %v", err)
		}
		return fail(http.StatusUnprocessableEntity, "matching: %v", err)
	}
	resp := MatchResponse{
		Model:      m.Name,
		Checksum:   m.Checksum,
		SourceName: req.SourceName,
		Mapping:    res.Mapping,
		Partial:    res.Partial,
		Degraded:   res.Handler != nil && !res.Handler.Complete,
	}
	if !req.OmitPredictions {
		resp.Predictions = make(map[string]map[string]float64, len(res.TagPredictions))
		for tag, p := range res.TagPredictions {
			resp.Predictions[tag] = p.Map()
		}
	}
	return resp, http.StatusOK
}

func buildSource(req *MatchRequest) (*core.Source, error) {
	schema, err := dtd.Parse(req.DTD)
	if err != nil {
		return nil, fmt.Errorf("source DTD: %v", err)
	}
	src := &core.Source{Name: req.SourceName, Schema: schema}
	if req.XML != "" {
		listings, err := xmltree.ParseAll(strings.NewReader(req.XML))
		if err != nil {
			return nil, fmt.Errorf("source XML: %v", err)
		}
		src.Listings = listings
	}
	return src, nil
}

// pathInside reports whether path resolves inside dir.
func pathInside(dir, path string) bool {
	rel, err := filepath.Rel(dir, path)
	if err != nil {
		return false
	}
	return rel == "." || (rel != ".." && !strings.HasPrefix(rel, "../"))
}
