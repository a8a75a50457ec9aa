// Package serve is the HTTP serving front end over the streaming
// experiment pipeline: one process owns a shared engine.Engine (and
// optionally a diskcache.Store underneath it), and every /run client gets
// its own experiments.StreamElements emit hook writing each released
// document straight into the chunked response body. Concurrent identical requests collapse into one
// computation via the engine's singleflight cache, a warm disk cache
// serves whole runs without executing a single job, and a client that
// disconnects mid-stream cancels its outstanding jobs through the
// request context (and through the emit-error cancellation in
// experiments.StreamElements), so abandoned requests stop burning
// simulator time.
//
// Endpoints:
//
//	GET  /healthz               liveness probe ("ok")
//	GET  /readyz                readiness + degradation state as JSON
//	GET  /experiments           registry listing as JSON
//	GET  /run/{id|all}?format=F stream rendered experiment output (chunked)
//	POST /sweep?format=F        stream a parametric design-space sweep
//	GET  /stats                 engine, disk-cache, breaker and fault counters as JSON
//	GET  /metrics               Prometheus text-format metrics
//
// /healthz and /readyz split liveness from readiness: /healthz answers
// "ok" whenever the process can serve HTTP at all (it must stay 200
// while the disk is on fire — restarting the process won't fix the
// disk), while /readyz reports the degradation surface: the persistent
// store's health as seen by its circuit breaker, and any active fault
// injection. A degraded store answers 503 with the same JSON body, so
// load balancers can drain a disk-degraded replica while it keeps
// serving byte-identical (just slower) responses to clients that still
// arrive.
//
// POST /sweep accepts a JSON grid (apps × budgets × r values), normalizes
// it into a canonical plan — sorted, deduplicated, labels derived from
// parameters — and renders one table row per grid point as it is
// evaluated. Points are plain model arithmetic and never reach the
// engine; equivalent grids, however ordered, render the same bytes.
//
// Every /run and /sweep request renders its own body: identical
// concurrent requests share one computation through the engine's
// singleflight, and each replays the shared documents through its own
// renderer. Under load, an optional max-concurrent-streams cap answers
// 503 with Retry-After (see docs/ARCHITECTURE.md "Serving under load").
// /metrics exposes request counts and latency histograms per
// endpoint/format plus the engine, disk-cache, breaker and fault
// counters. /stats, /readyz and /metrics read those counters from one
// snapshot per request, so the three views cannot disagree.
//
// The /run body is byte-identical to the mergescale CLI's buffered output
// for the same format: the handler drives the exact renderer pipeline the
// CLI uses. The unit of release and of flushing is one experiment's
// document, so clients see artifacts as they resolve, in registry order;
// /sweep renders row by row, as each grid point is evaluated, and its
// body leaves as net/http's response buffer fills.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"time"

	"mergescale/internal/engine"
	"mergescale/internal/engine/diskcache"
	"mergescale/internal/experiments"
	"mergescale/internal/faults"
	"mergescale/internal/report"
)

// Server wires a shared engine (and optional persistent store) behind the
// HTTP handlers. Fields are read-only after the first request.
type Server struct {
	// Engine executes and caches experiment jobs. Required.
	Engine *engine.Engine
	// Store, when non-nil, adds disk-cache counters to /stats and
	// /metrics and marks /readyz's store "ok". It is informational here —
	// the engine already consults the store through its own Config.Store
	// wiring.
	Store *diskcache.Store
	// Opt is applied to every run (Quick, UseDuration). Opt.Engine is
	// overwritten per request by experiments.StreamElements.
	Opt experiments.Options
	// Experiments is the registry served; nil selects
	// experiments.Registry().
	Experiments []experiments.Experiment
	// Log receives request errors; nil discards them.
	Log *log.Logger

	// Breaker, when non-nil, is the circuit breaker wrapped around the
	// disk store (the engine reads through it). /readyz, /stats and
	// /metrics report its state; the server never drives it directly.
	Breaker *faults.Breaker
	// Injector, when non-nil, is the active fault injector; /readyz and
	// /metrics report its per-rule injection counts so a chaos run is
	// observable from the outside.
	Injector *faults.Injector
	// ReqTimeout, when > 0, bounds each /run and /sweep request
	// (CLI: serve -reqtimeout). The deadline propagates through the
	// request context into the engine jobs and /sweep's per-point check;
	// expiry before the first body byte is a clean 503, after it a
	// connection abort (see streamRender).
	ReqTimeout time.Duration
	// DrainTimeout bounds graceful shutdown: how long ListenAndServe
	// waits for in-flight responses to flush after its context is
	// cancelled (CLI: serve -draintimeout). <= 0 selects
	// DefaultDrainTimeout.
	DrainTimeout time.Duration
	// MaxStreams, when > 0, caps concurrently executing /run and /sweep
	// streams; excess requests get 503 with Retry-After (CLI: serve
	// -maxstreams).
	MaxStreams int

	// metrics backs /metrics; initialized once by Handler.
	metrics *serveMetrics
	// streams implements MaxStreams; nil when off.
	streams *streamGate
}

// registry returns the experiment set this server exposes.
func (s *Server) registry() []experiments.Experiment {
	if s.Experiments != nil {
		return s.Experiments
	}
	return experiments.Registry()
}

func (s *Server) logf(format string, args ...any) {
	if s.Log != nil {
		s.Log.Printf(format, args...)
	}
}

// Handler builds the route table. The returned handler is safe for
// concurrent use; every /run request gets its own renderer and sink.
// Every route is instrumented for /metrics; /run and /sweep additionally
// pass the stream cap and the request deadline. The other routes stay
// unconditioned so probes and scrapes answer even when the server is
// shedding load.
func (s *Server) Handler() http.Handler {
	if s.metrics == nil {
		s.metrics = newServeMetrics()
	}
	if s.streams == nil && s.MaxStreams > 0 {
		s.streams = &streamGate{max: int64(s.MaxStreams)}
	}
	mux := http.NewServeMux()
	mux.Handle("GET /healthz", s.instrument("/healthz", http.HandlerFunc(s.handleHealthz)))
	mux.Handle("GET /readyz", s.instrument("/readyz", http.HandlerFunc(s.handleReadyz)))
	mux.Handle("GET /metrics", s.instrument("/metrics", http.HandlerFunc(s.handleMetrics)))
	mux.Handle("GET /experiments", s.instrument("/experiments", http.HandlerFunc(s.handleExperiments)))
	mux.Handle("GET /stats", s.instrument("/stats", http.HandlerFunc(s.handleStats)))
	mux.Handle("GET /run/{target}", s.instrument("/run", s.capStreams(s.withTimeout(http.HandlerFunc(s.handleRun)))))
	mux.Handle("POST /sweep", s.instrument("/sweep", s.capStreams(s.withTimeout(http.HandlerFunc(s.handleSweep)))))
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// breakerInfo is the circuit breaker's externally visible state, shared
// by /readyz, /stats and /metrics.
type breakerInfo struct {
	// state is State's enum, for /readyz and /metrics.
	state             faults.BreakerState
	State             string `json:"state"` // closed | half-open | open
	ConsecutiveFaults int    `json:"consecutiveFaults"`
	Faults            uint64 `json:"faults"`
	ShortCircuited    uint64 `json:"shortCircuited"`
	Opened            uint64 `json:"opened"`
	HalfOpened        uint64 `json:"halfOpened"`
	Closed            uint64 `json:"closed"`
}

func newBreakerInfo(snap faults.BreakerSnapshot) *breakerInfo {
	return &breakerInfo{
		state:             snap.State,
		State:             snap.State.String(),
		ConsecutiveFaults: snap.ConsecutiveFaults,
		Faults:            snap.Stats.Faults,
		ShortCircuited:    snap.Stats.ShortCircuited,
		Opened:            snap.Stats.Opened,
		HalfOpened:        snap.Stats.HalfOpened,
		Closed:            snap.Stats.Closed,
	}
}

// readyzPayload is the /readyz response body.
type readyzPayload struct {
	Status  string              `json:"status"` // ok | degraded
	Store   string              `json:"store"`  // none | ok | probing | degraded
	Breaker *breakerInfo        `json:"breaker,omitempty"`
	Faults  []faults.RuleCounts `json:"faults,omitempty"`
}

// handleReadyz reports readiness with the degradation surface attached.
// Liveness stays on /healthz; this endpoint answers "should traffic
// prefer another replica?": an open breaker means the disk store is
// gone and every response is a recomputation — correct but slower — so
// the payload says degraded and the status code says 503. The body is
// identical either way, so probes and humans read one shape.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshot()
	payload := readyzPayload{Status: "ok", Store: "none", Breaker: snap.Breaker, Faults: snap.Faults}
	if snap.Disk != nil {
		payload.Store = "ok"
	}
	if snap.Breaker != nil {
		switch snap.Breaker.state {
		case faults.BreakerOpen:
			payload.Store = "degraded"
			payload.Status = "degraded"
		case faults.BreakerHalfOpen:
			payload.Store = "probing"
		}
	}
	// Headers must precede the early WriteHeader — writeJSON's own
	// Content-Type set would land too late on the 503 path.
	w.Header().Set("Content-Type", "application/json")
	if payload.Status != "ok" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	s.writeJSON(w, payload)
}

// experimentInfo is one row of the /experiments listing.
type experimentInfo struct {
	ID     string `json:"id"`
	Title  string `json:"title"`
	Timing bool   `json:"timing,omitempty"`
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	reg := s.registry()
	infos := make([]experimentInfo, len(reg))
	for i, e := range reg {
		infos[i] = experimentInfo{ID: e.ID, Title: e.Title, Timing: e.Timing}
	}
	s.writeJSON(w, infos)
}

// engineStats mirrors engine.Stats with stable lowercase JSON names, so
// the /stats wire format is independent of Go field renames.
type engineStats struct {
	Workers     int    `json:"workers"`
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Executed    uint64 `json:"executed"`
	Inline      uint64 `json:"inline"`
	StoreHits   uint64 `json:"storeHits"`
	StoreMisses uint64 `json:"storeMisses"`
}

// diskStats mirrors diskcache.Stats plus the store's current footprint.
// The failure counters are omitempty: a healthy store's /stats bytes are
// unchanged from before the counters existed.
type diskStats struct {
	Dir       string `json:"dir"`
	Puts      uint64 `json:"puts"`
	PutSkips  uint64 `json:"putSkips"`
	WriteErrs uint64 `json:"writeErrs,omitempty"`
	Evictions uint64 `json:"evictions"`
	Dropped   uint64 `json:"dropped"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
}

// counterSnapshot is one read of every counter owner: the engine, and
// the store, breaker and injector when configured (nil or empty when
// not). It is the /stats body as is.
type counterSnapshot struct {
	Engine  engineStats         `json:"engine"`
	Disk    *diskStats          `json:"disk,omitempty"`
	Breaker *breakerInfo        `json:"breaker,omitempty"`
	Faults  []faults.RuleCounts `json:"faults,omitempty"`
}

// snapshot reads each counter owner exactly once. /stats encodes the
// result, /readyz derives its state from it and /metrics renders its
// engine, disk, breaker and fault families from it, so no counter has a
// second reader.
func (s *Server) snapshot() counterSnapshot {
	st := s.Engine.Stats()
	snap := counterSnapshot{Engine: engineStats{
		Workers:     s.Engine.Workers(),
		Hits:        st.Hits,
		Misses:      st.Misses,
		Executed:    st.Executed,
		Inline:      st.Inline,
		StoreHits:   st.StoreHits,
		StoreMisses: st.StoreMisses,
	}}
	if s.Store != nil {
		ds := s.Store.Stats()
		entries, bytes := s.Store.Size()
		snap.Disk = &diskStats{
			Dir:       s.Store.Dir(),
			Puts:      ds.Puts,
			PutSkips:  ds.PutSkips,
			WriteErrs: ds.WriteErrs,
			Evictions: ds.Evictions,
			Dropped:   ds.Dropped,
			Entries:   entries,
			Bytes:     bytes,
		}
	}
	if s.Breaker != nil {
		snap.Breaker = newBreakerInfo(s.Breaker.Snapshot())
	}
	if s.Injector != nil {
		snap.Faults = s.Injector.Counts()
	}
	return snap
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, s.snapshot())
}

// contentTypes maps report formats to their response media type.
var contentTypes = map[string]string{
	"text":     "text/plain; charset=utf-8",
	"markdown": "text/markdown; charset=utf-8",
	"json":     "application/json",
	"csv":      "text/csv; charset=utf-8",
}

// countingWriter tracks whether any body byte has reached the response,
// deciding between a clean 500 and a connection abort on stream errors.
type countingWriter struct {
	w     io.Writer
	wrote bool
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if len(p) > 0 {
		c.wrote = true
	}
	return c.w.Write(p)
}

// handleRun streams one experiment (or the whole registry) through the
// requested renderer backend. The response is chunked:
// experiments.StreamElements releases each experiment's whole document
// the moment it and every earlier one have resolved, and streamRender
// flushes the response when the document ends, so the client reads
// artifacts incrementally while later ones still compute. The wait
// between documents is the only place the producer blocks, and no
// document waits in the buffer through it.
// Errors before any body byte (an immediately failing experiment, a
// renderer that errors on Begin) still get a clean 500; other errors
// abort the connection (http.ErrAbortHandler) — see streamRender.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	target := r.PathValue("target")
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "text"
	}
	// Validate the format before resolving targets or writing headers, so
	// bad requests get a clean 400 instead of half a response.
	if _, err := report.NewRenderer(format, io.Discard); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	var targets []experiments.Experiment
	if target == "all" {
		targets = s.registry()
	} else {
		found := false
		for _, e := range s.registry() {
			if e.ID == target {
				targets = []experiments.Experiment{e}
				found = true
				break
			}
		}
		if !found {
			http.Error(w, fmt.Sprintf("unknown experiment %q (see /experiments)", target), http.StatusNotFound)
			return
		}
	}

	// One emit hook per client: the document releaser inside
	// StreamElements serializes calls, and a slow client applies
	// backpressure through its connection without stalling other requests
	// (each request drives its own stream). The request context cancels on
	// disconnect, and a mid-stream write error additionally cancels
	// outstanding jobs via the stream's emit-error cancellation.
	s.streamRender(w, r, target, format,
		func(emit func(report.Element) error) error {
			return experiments.StreamElements(r.Context(), s.Engine, targets, s.Opt, emit)
		})
}

// handleSweep streams one parametric design-space sweep. The JSON grid is
// decoded, validated and normalized before any point is evaluated —
// malformed bodies get a one-line 400 for free. Equivalent grids (however
// ordered or duplicated) normalize to one plan and so render the same
// bytes. The points are plain arithmetic evaluated in plan order on the
// request goroutine; they never reach the engine, so a sweep leaves no
// engine or disk-cache state behind. The rows are emitted as their points
// are evaluated but never wait between one another, so the body leaves in
// chunks of net/http's response buffer as it fills, and the rest when the
// document ends.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "text"
	}
	if _, err := report.NewRenderer(format, io.Discard); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	req, err := experiments.ParseSweepRequest(http.MaxBytesReader(w, r.Body, experiments.MaxSweepBody))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	plan, err := req.Normalize()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.streamRender(w, r, "sweep", format,
		func(emit func(report.Element) error) error {
			return plan.Run(r.Context(), emit)
		})
}

// streamRender is the chunked streaming pipeline shared by /run and
// /sweep: it drives produce's elements through the format renderer into
// the response, and flushes only when a document ends (ElemEndDoc).
// Between flushes the bytes collect in net/http's response buffer, which
// sends a chunk each time it fills. target names the request in error
// logs.
//
// Errors before the first body byte get a clean 500; errors after it
// abort the connection (http.ErrAbortHandler) — a truncated chunked body
// is the HTTP-visible form of a failed stream, and is preferable to a
// silently incomplete document with a clean terminator. Body bytes
// written before the first flush are usually still in the response
// buffer, so a failure there closes the connection before any status
// line is sent.
func (s *Server) streamRender(w http.ResponseWriter, r *http.Request, target, format string,
	produce func(emit func(report.Element) error) error) {
	w.Header().Set("Content-Type", contentTypes[format])
	w.Header().Set("X-Content-Type-Options", "nosniff")
	body := &countingWriter{w: w}
	renderer, err := report.NewRenderer(format, body)
	if err != nil {
		// Unreachable: every caller validates the format first.
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	flusher, _ := w.(http.Flusher)

	streamErr := renderer.Begin()
	if streamErr == nil {
		// A released document is written whole before the producer can
		// block on the next one, so flushing at its end is what lets a
		// client read it while later documents still compute.
		streamErr = produce(func(el report.Element) error {
			if err := renderer.Element(el); err != nil {
				return err
			}
			if el.Kind == report.ElemEndDoc && flusher != nil {
				flusher.Flush()
			}
			return nil
		})
	}
	if streamErr == nil {
		streamErr = renderer.End()
	}
	if streamErr != nil {
		s.logf("serve: %s format=%s: %v", target, format, streamErr)
		if !body.wrote {
			// The status line hasn't been forced out by body bytes yet, so
			// the client can still get a proper error response. A blown
			// request deadline is overload, not server breakage: 503 (try
			// again, maybe elsewhere) rather than 500.
			code := http.StatusInternalServerError
			if errors.Is(streamErr, context.DeadlineExceeded) {
				code = http.StatusServiceUnavailable
			}
			http.Error(w, streamErr.Error(), code)
			return
		}
		panic(http.ErrAbortHandler)
	}
}

// writeJSON renders v with a trailing newline (curl-friendly).
func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		s.logf("serve: encode: %v", err)
	}
}

// DefaultDrainTimeout bounds how long ListenAndServe waits for in-flight
// requests after its context is cancelled, when Server.DrainTimeout is
// unset. Request contexts derive from the serve context, so streams
// abort almost immediately; the grace period only covers flushing their
// final bytes.
const DefaultDrainTimeout = 10 * time.Second

// ListenAndServe binds addr (use host:0 for an ephemeral port), reports
// the bound address through ready (if non-nil), and serves until ctx is
// cancelled, then shuts down gracefully: the listener closes, in-flight
// request contexts cancel (cancelling their engine jobs), and remaining
// responses get DrainTimeout (default DefaultDrainTimeout) to flush —
// after which lingering connections are closed hard, so a wedged client
// can never hold shutdown hostage. It returns nil on a clean ctx-driven
// shutdown.
func (s *Server) ListenAndServe(ctx context.Context, addr string, ready func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler: s.Handler(),
		// Tie every request context to the serve context so cancelling the
		// server cancels in-flight engine jobs, not just the listener.
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	if ready != nil {
		ready(ln.Addr())
	}
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		drain := s.DrainTimeout
		if drain <= 0 {
			drain = DefaultDrainTimeout
		}
		shutCtx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			srv.Close()
		}
		<-errc // always http.ErrServerClosed after Shutdown/Close
		return nil
	}
}
