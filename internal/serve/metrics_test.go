package serve

import (
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"mergescale/internal/engine"
	"mergescale/internal/experiments"
)

// metricValue scans Prometheus text output for an exact series (metric
// name plus rendered label set) and returns its value.
func metricValue(t *testing.T, metrics, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(metrics, "\n") {
		rest, ok := strings.CutPrefix(line, series+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("series %q has unparseable value %q: %v", series, rest, err)
		}
		return v
	}
	t.Fatalf("series %q not found in metrics output:\n%s", series, metrics)
	return 0
}

func hasSeries(metrics, series string) bool {
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, series+" ") {
			return true
		}
	}
	return false
}

// TestMetricsEndpoint drives a few requests and checks the Prometheus
// exposition: request counters per endpoint/format/code, a consistent
// latency histogram, and the engine re-exports.
func TestMetricsEndpoint(t *testing.T) {
	srv := &Server{
		Engine:      engine.New(engine.Config{Workers: 2}),
		Opt:         quick,
		Experiments: []experiments.Experiment{mustByID(t, "table1")},
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// 2 text runs (cold, then an engine hit), 1 json run, 1 404, 1 bad
	// format, 1 stats.
	get(t, ts, "/run/table1")
	get(t, ts, "/run/table1")
	get(t, ts, "/run/table1?format=json")
	get(t, ts, "/run/nope")
	get(t, ts, "/run/table1?format=yaml")
	get(t, ts, "/stats")

	status, raw := get(t, ts, "/metrics")
	if status != 200 {
		t.Fatalf("/metrics = %d, want 200", status)
	}
	body := string(raw)

	for series, want := range map[string]float64{
		`mergescale_http_requests_total{endpoint="/run",format="text",code="200"}`:    2,
		`mergescale_http_requests_total{endpoint="/run",format="json",code="200"}`:    1,
		`mergescale_http_requests_total{endpoint="/run",format="text",code="404"}`:    1,
		`mergescale_http_requests_total{endpoint="/run",format="invalid",code="400"}`: 1,
		`mergescale_http_requests_total{endpoint="/stats",format="",code="200"}`:      1,
		`mergescale_engine_jobs_executed_total`:                                       1, // table1, once
		`mergescale_engine_cache_hits_total`:                                          2, // warm text + json
	} {
		if got := metricValue(t, body, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}

	// Histogram invariants for the /run text series: +Inf bucket equals
	// the count, sum is positive.
	inf := metricValue(t, body, `mergescale_http_request_duration_seconds_bucket{endpoint="/run",format="text",le="+Inf"}`)
	count := metricValue(t, body, `mergescale_http_request_duration_seconds_count{endpoint="/run",format="text"}`)
	if inf != count || count != 3 { // 2 ok + 1 404
		t.Errorf("histogram +Inf = %v, count = %v, want both 3", inf, count)
	}
	if sum := metricValue(t, body, `mergescale_http_request_duration_seconds_sum{endpoint="/run",format="text"}`); sum <= 0 {
		t.Errorf("histogram sum = %v, want > 0", sum)
	}

	// Engine re-exports exist and agree with the engine's own counters.
	st := srv.Engine.Stats()
	if got := metricValue(t, body, "mergescale_engine_jobs_executed_total"); got != float64(st.Executed) {
		t.Errorf("engine executed re-export = %v, want %d", got, st.Executed)
	}
	if got := metricValue(t, body, "mergescale_engine_workers"); got != float64(srv.Engine.Workers()) {
		t.Errorf("engine workers = %v, want %d", got, srv.Engine.Workers())
	}

	// Admission-control counters exist even when the features are off.
	if !hasSeries(body, "mergescale_http_streams_rejected_total") || !hasSeries(body, "mergescale_http_request_timeouts_total") {
		t.Error("admission-control counters missing from /metrics")
	}
	// No store, no limits: the optional families must be absent.
	if hasSeries(body, "mergescale_disk_entries") {
		t.Error("disk metrics present without a Store")
	}
	if hasSeries(body, "mergescale_http_streams_active") {
		t.Error("stream gauge present with MaxStreams off")
	}

	// HELP/TYPE preamble discipline.
	for _, want := range []string{
		"# TYPE mergescale_http_requests_total counter",
		"# TYPE mergescale_http_request_duration_seconds histogram",
		"# TYPE mergescale_engine_workers gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestMetricsDeterministicOrder locks the sorted rendering: two scrapes
// with no traffic in between must be byte-identical.
func TestMetricsDeterministicOrder(t *testing.T) {
	srv := &Server{Engine: engine.New(engine.Config{Workers: 1}), Opt: quick}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, format := range []string{"text", "json", "csv", "markdown"} {
		get(t, ts, "/run/all?format="+format)
	}
	_, a := get(t, ts, "/metrics")
	// The scrape itself mutates the /metrics request counter, so strip
	// the lines that legitimately differ between scrapes before
	// comparing.
	_, b := get(t, ts, "/metrics")
	stripped := func(raw []byte) string {
		var keep []string
		for _, line := range strings.Split(string(raw), "\n") {
			if strings.Contains(line, `endpoint="/metrics"`) {
				continue
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}
	if stripped(a) != stripped(b) {
		t.Error("two idle scrapes differ outside the /metrics self-counter")
	}
}
