package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// latencyBuckets are the histogram upper bounds (seconds) for
// mergescale_http_request_duration_seconds. They span sub-millisecond
// cache hits through multi-second cold registry renders; +Inf is
// implicit.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// counterLabel keys one mergescale_http_requests_total series.
type counterLabel struct {
	endpoint string // route pattern: /run, /stats, /experiments, /healthz, /metrics
	format   string // render format for /run, "" elsewhere
	code     string // HTTP status, e.g. "200"
}

// histLabel keys one request-duration histogram series. Status is
// deliberately excluded (Prometheus convention: latency is per route, the
// status split lives on the counter).
type histLabel struct {
	endpoint string
	format   string
}

// histogram is one cumulative latency histogram in classic Prometheus
// form: per-bucket observation counts (non-cumulative here, summed at
// render time), total sum and count.
type histogram struct {
	buckets [15]uint64 // len(latencyBuckets)+1; last is the +Inf overflow
	sum     float64
	count   uint64
}

func (h *histogram) observe(seconds float64) {
	i := 0
	for i < len(latencyBuckets) && seconds > latencyBuckets[i] {
		i++
	}
	h.buckets[i]++
	h.sum += seconds
	h.count++
}

// serveMetrics accumulates the server's own observability counters. The
// engine, disk-cache, breaker and fault counters are not duplicated here:
// /metrics renders them from the same per-request snapshot /stats
// encodes, so the two views can never disagree.
type serveMetrics struct {
	mu        sync.Mutex
	requests  map[counterLabel]uint64
	durations map[histLabel]*histogram
	shed      uint64 // /run and /sweep requests rejected 503 by the stream cap
	timeouts  uint64 // requests whose -reqtimeout deadline fired
}

func newServeMetrics() *serveMetrics {
	return &serveMetrics{
		requests:  make(map[counterLabel]uint64),
		durations: make(map[histLabel]*histogram),
	}
}

// observe records one completed request.
func (m *serveMetrics) observe(endpoint, format string, code int, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[counterLabel{endpoint: endpoint, format: format, code: strconv.Itoa(code)}]++
	hl := histLabel{endpoint: endpoint, format: format}
	h := m.durations[hl]
	if h == nil {
		h = &histogram{}
		m.durations[hl] = h
	}
	h.observe(seconds)
}

func (m *serveMetrics) streamRejected() {
	m.mu.Lock()
	m.shed++
	m.mu.Unlock()
}

func (m *serveMetrics) requestTimedOut() {
	m.mu.Lock()
	m.timeouts++
	m.mu.Unlock()
}

// fmtFloat renders a float the Prometheus way: shortest representation
// that round-trips.
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeHeaderOnce emits the # HELP / # TYPE preamble for a metric family.
func writeHeaderOnce(b *strings.Builder, name, help, typ string) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// handleMetrics renders the full metric set in Prometheus text
// exposition format (version 0.0.4): the server's own request counters
// and latency histograms, the admission-control counters, and the
// engine, disk-cache, breaker and fault families from one snapshot.
// Output ordering is deterministic (sorted label sets) so scrapes diff
// cleanly.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder

	s.metrics.mu.Lock()
	writeHeaderOnce(&b, "mergescale_http_requests_total",
		"HTTP requests served, by endpoint, render format and status code.", "counter")
	counters := make([]counterLabel, 0, len(s.metrics.requests))
	for l := range s.metrics.requests {
		counters = append(counters, l)
	}
	sort.Slice(counters, func(i, j int) bool {
		a, c := counters[i], counters[j]
		if a.endpoint != c.endpoint {
			return a.endpoint < c.endpoint
		}
		if a.format != c.format {
			return a.format < c.format
		}
		return a.code < c.code
	})
	for _, l := range counters {
		fmt.Fprintf(&b, "mergescale_http_requests_total{endpoint=%q,format=%q,code=%q} %d\n",
			l.endpoint, l.format, l.code, s.metrics.requests[l])
	}

	writeHeaderOnce(&b, "mergescale_http_request_duration_seconds",
		"HTTP request latency, by endpoint and render format.", "histogram")
	hists := make([]histLabel, 0, len(s.metrics.durations))
	for l := range s.metrics.durations {
		hists = append(hists, l)
	}
	sort.Slice(hists, func(i, j int) bool {
		a, c := hists[i], hists[j]
		if a.endpoint != c.endpoint {
			return a.endpoint < c.endpoint
		}
		return a.format < c.format
	})
	for _, l := range hists {
		h := s.metrics.durations[l]
		cum := uint64(0)
		for i, ub := range latencyBuckets {
			cum += h.buckets[i]
			fmt.Fprintf(&b, "mergescale_http_request_duration_seconds_bucket{endpoint=%q,format=%q,le=%q} %d\n",
				l.endpoint, l.format, fmtFloat(ub), cum)
		}
		cum += h.buckets[len(latencyBuckets)]
		fmt.Fprintf(&b, "mergescale_http_request_duration_seconds_bucket{endpoint=%q,format=%q,le=\"+Inf\"} %d\n",
			l.endpoint, l.format, cum)
		fmt.Fprintf(&b, "mergescale_http_request_duration_seconds_sum{endpoint=%q,format=%q} %s\n",
			l.endpoint, l.format, fmtFloat(h.sum))
		fmt.Fprintf(&b, "mergescale_http_request_duration_seconds_count{endpoint=%q,format=%q} %d\n",
			l.endpoint, l.format, h.count)
	}

	shed, timeouts := s.metrics.shed, s.metrics.timeouts
	s.metrics.mu.Unlock()

	counter := func(name, help string, v uint64) {
		writeHeaderOnce(&b, name, help, "counter")
		fmt.Fprintf(&b, "%s %d\n", name, v)
	}
	gauge := func(name, help string, v int64) {
		writeHeaderOnce(&b, name, help, "gauge")
		fmt.Fprintf(&b, "%s %d\n", name, v)
	}

	counter("mergescale_http_streams_rejected_total",
		"/run and /sweep requests rejected with 503 by the max-concurrent-streams cap.", shed)
	counter("mergescale_http_request_timeouts_total",
		"Requests whose per-request deadline (-reqtimeout) expired.", timeouts)
	if s.streams != nil {
		gauge("mergescale_http_streams_active", "Currently executing /run and /sweep streams.", s.streams.active())
	}

	snap := s.snapshot()
	st := snap.Engine
	gauge("mergescale_engine_workers", "Engine worker-pool size (the Run caller counts as one).", int64(st.Workers))
	counter("mergescale_engine_cache_hits_total", "Engine memory-cache hits (singleflight shares included).", st.Hits)
	counter("mergescale_engine_cache_misses_total", "Engine memory-cache misses.", st.Misses)
	counter("mergescale_engine_jobs_executed_total", "Engine jobs actually executed (cache misses that computed).", st.Executed)
	counter("mergescale_engine_jobs_inline_total", "Engine jobs executed inline on the submitting goroutine.", st.Inline)
	counter("mergescale_engine_store_hits_total", "Disk-store hits observed by the engine.", st.StoreHits)
	counter("mergescale_engine_store_misses_total", "Disk-store misses observed by the engine.", st.StoreMisses)

	if ds := snap.Disk; ds != nil {
		counter("mergescale_disk_puts_total", "Disk-cache entries written.", ds.Puts)
		counter("mergescale_disk_put_skips_total", "Disk-cache writes skipped (unencodable values).", ds.PutSkips)
		counter("mergescale_disk_write_errors_total", "Disk-cache envelope writes failed on file I/O.", ds.WriteErrs)
		counter("mergescale_disk_evictions_total", "Disk-cache LRU evictions.", ds.Evictions)
		counter("mergescale_disk_dropped_total", "Disk-cache entries dropped (corrupt/version/key mismatch).", ds.Dropped)
		gauge("mergescale_disk_entries", "Disk-cache resident entries.", int64(ds.Entries))
		gauge("mergescale_disk_bytes", "Disk-cache resident bytes.", ds.Bytes)
	}

	if br := snap.Breaker; br != nil {
		gauge("mergescale_store_breaker_state",
			"Disk-store circuit breaker state (0=closed, 1=half-open, 2=open).", int64(br.state))
		gauge("mergescale_store_breaker_consecutive_faults",
			"Consecutive disk-store faults observed by the breaker.", int64(br.ConsecutiveFaults))
		counter("mergescale_store_breaker_faults_total",
			"Disk-store operations that returned an infrastructure error.", br.Faults)
		counter("mergescale_store_breaker_short_circuited_total",
			"Disk-store operations answered locally while the breaker was open.", br.ShortCircuited)
		counter("mergescale_store_breaker_opened_total",
			"Breaker transitions into open.", br.Opened)
		counter("mergescale_store_breaker_half_opened_total",
			"Breaker transitions into half-open (recovery probes).", br.HalfOpened)
		counter("mergescale_store_breaker_closed_total",
			"Breaker transitions back to closed (recoveries).", br.Closed)
	}

	if snap.Faults != nil {
		var injected uint64
		for _, rc := range snap.Faults {
			injected += rc.Injected
		}
		counter("mergescale_faults_injected_total",
			"Synthetic faults injected by the -faults profile.", injected)
	}

	body := b.String()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	if _, err := fmt.Fprint(w, body); err != nil {
		s.logf("serve: metrics write: %v", err)
	}
}

// statusWriter records the response status for the metrics middleware
// while passing Flush through, so chunked /run streaming keeps working
// behind the instrumentation.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.code == 0 {
		sw.code = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.code == 0 {
		sw.code = http.StatusOK
	}
	return sw.ResponseWriter.Write(p)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (sw *statusWriter) status() int {
	if sw.code == 0 {
		return http.StatusOK
	}
	return sw.code
}

// normalizeFormat folds the ?format= query value into a bounded label
// set: the four real formats plus "invalid". Metrics labels must never
// mirror arbitrary client input (unbounded series cardinality).
func normalizeFormat(format string) string {
	if format == "" {
		return "text"
	}
	if _, ok := contentTypes[format]; ok {
		return format
	}
	return "invalid"
}

// instrument wraps a route with request counting and latency
// observation. A mid-stream abort (http.ErrAbortHandler) is still
// recorded — the deferred observe runs before the panic propagates to
// net/http.
func (s *Server) instrument(endpoint string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		format := ""
		if endpoint == "/run" || endpoint == "/sweep" {
			format = normalizeFormat(r.URL.Query().Get("format"))
		}
		defer func() {
			s.metrics.observe(endpoint, format, sw.status(), time.Since(start).Seconds())
		}()
		next.ServeHTTP(sw, r)
	})
}
