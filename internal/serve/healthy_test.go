package serve

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mergescale/internal/engine"
	"mergescale/internal/engine/diskcache"
	"mergescale/internal/experiments"
	"mergescale/internal/faults"
)

// healthyStoreServer builds a server with every optional counter owner
// attached (store, breaker, injector, stream cap) and moves the store's
// counters off zero without leaving an entry written through Put, so the
// pinned bytes depend on the serving path alone, not on the envelope's
// encoded size. It returns the server and the cache
// directory, which the pinned bodies spell as DIR.
func healthyStoreServer(t *testing.T) (*Server, string) {
	t.Helper()
	dir := t.TempDir()
	// One resident entry of a known size, indexed by Open.
	if err := os.WriteFile(filepath.Join(dir, "seed.gob"), make([]byte, 100), 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := diskcache.Open(dir, diskcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	breaker := faults.NewBreaker(store, faults.BreakerOptions{})
	// A Put, then a Get of that entry with its bytes garbled: one write,
	// one drop, and the entry leaves the index again.
	breaker.Put("k", "v")
	matches, err := filepath.Glob(filepath.Join(dir, "*.gob"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range matches {
		if filepath.Base(m) != "seed.gob" {
			if err := os.WriteFile(m, []byte("garbage"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, ok := breaker.Get("k"); ok {
		t.Fatal("garbled entry hit")
	}
	breaker.Put("skip", func() {}) // unencodable: one skip
	spec, err := faults.ParseSpec("seed=7,get.corrupt=1/1000")
	if err != nil {
		t.Fatal(err)
	}
	return &Server{
		Engine:      engine.New(engine.Config{Workers: 2}),
		Store:       store,
		Breaker:     breaker,
		Injector:    faults.NewInjector(spec),
		Opt:         quick,
		Experiments: []experiments.Experiment{mustByID(t, "table1")},
		MaxStreams:  4,
	}, dir
}

// healthyBodies returns /stats, /readyz and the families of /metrics
// that no request shapes: the request counter and latency histogram
// depend on timing and on the scrapes themselves, so they are cut.
func healthyBodies(t *testing.T, srv *Server, dir string) (stats, readyz, metrics string) {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// A cold run and a warm one: one executed job, one hit, one miss.
	get(t, ts, "/run/table1")
	get(t, ts, "/run/table1")
	body := func(path string) string {
		status, raw := get(t, ts, path)
		if status != 200 {
			t.Fatalf("%s = %d, want 200", path, status)
		}
		if dir == "" {
			return string(raw)
		}
		return strings.ReplaceAll(string(raw), dir, "DIR")
	}
	stats, readyz = body("/stats"), body("/readyz")
	var keep []string
	for _, line := range strings.SplitAfter(body("/metrics"), "\n") {
		if !strings.Contains(line, "mergescale_http_requests_total") &&
			!strings.Contains(line, "mergescale_http_request_duration_seconds") {
			keep = append(keep, line)
		}
	}
	return stats, readyz, strings.Join(keep, "")
}

// TestHealthyBodiesPinned pins the healthy /stats, /readyz and
// non-request /metrics bodies byte for byte, for a server with every
// optional counter owner and for one with none, so a change to how the
// handlers read their counters cannot move a byte unnoticed.
func TestHealthyBodiesPinned(t *testing.T) {
	full, dir := healthyStoreServer(t)
	bare := &Server{
		Engine:      engine.New(engine.Config{Workers: 2}),
		Opt:         quick,
		Experiments: []experiments.Experiment{mustByID(t, "table1")},
	}
	for _, c := range []struct {
		name                         string
		srv                          *Server
		dir                          string
		wantStats, wantReadyz, wantM string
	}{
		{"full", full, dir, fullStats, fullReadyz, fullMetrics},
		{"bare", bare, "", bareStats, bareReadyz, bareMetrics},
	} {
		stats, readyz, metrics := healthyBodies(t, c.srv, c.dir)
		for _, b := range []struct{ what, got, want string }{
			{"/stats", stats, c.wantStats},
			{"/readyz", readyz, c.wantReadyz},
			{"/metrics", metrics, c.wantM},
		} {
			if b.got != b.want {
				t.Errorf("%s %s body:\n%s\nwant:\n%s", c.name, b.what, b.got, b.want)
			}
		}
	}
}

// The pinned bodies. The full server's cache directory is spelled DIR.

const fullStats = `{"engine":{"workers":2,"hits":1,"misses":1,"executed":1,"inline":2,"storeHits":0,"storeMisses":0},"disk":{"dir":"DIR","puts":1,"putSkips":1,"evictions":0,"dropped":1,"entries":1,"bytes":100},"breaker":{"state":"closed","consecutiveFaults":0,"faults":0,"shortCircuited":0,"opened":0,"halfOpened":0,"closed":0},"faults":[{"op":"get","kind":"corrupt","ops":0,"injected":0}]}
`

const fullReadyz = `{"status":"ok","store":"ok","breaker":{"state":"closed","consecutiveFaults":0,"faults":0,"shortCircuited":0,"opened":0,"halfOpened":0,"closed":0},"faults":[{"op":"get","kind":"corrupt","ops":0,"injected":0}]}
`

const fullMetrics = `# HELP mergescale_http_streams_rejected_total /run and /sweep requests rejected with 503 by the max-concurrent-streams cap.
# TYPE mergescale_http_streams_rejected_total counter
mergescale_http_streams_rejected_total 0
# HELP mergescale_http_request_timeouts_total Requests whose per-request deadline (-reqtimeout) expired.
# TYPE mergescale_http_request_timeouts_total counter
mergescale_http_request_timeouts_total 0
# HELP mergescale_http_streams_active Currently executing /run and /sweep streams.
# TYPE mergescale_http_streams_active gauge
mergescale_http_streams_active 0
# HELP mergescale_engine_workers Engine worker-pool size (the Run caller counts as one).
# TYPE mergescale_engine_workers gauge
mergescale_engine_workers 2
# HELP mergescale_engine_cache_hits_total Engine memory-cache hits (singleflight shares included).
# TYPE mergescale_engine_cache_hits_total counter
mergescale_engine_cache_hits_total 1
# HELP mergescale_engine_cache_misses_total Engine memory-cache misses.
# TYPE mergescale_engine_cache_misses_total counter
mergescale_engine_cache_misses_total 1
# HELP mergescale_engine_jobs_executed_total Engine jobs actually executed (cache misses that computed).
# TYPE mergescale_engine_jobs_executed_total counter
mergescale_engine_jobs_executed_total 1
# HELP mergescale_engine_jobs_inline_total Engine jobs executed inline on the submitting goroutine.
# TYPE mergescale_engine_jobs_inline_total counter
mergescale_engine_jobs_inline_total 2
# HELP mergescale_engine_store_hits_total Disk-store hits observed by the engine.
# TYPE mergescale_engine_store_hits_total counter
mergescale_engine_store_hits_total 0
# HELP mergescale_engine_store_misses_total Disk-store misses observed by the engine.
# TYPE mergescale_engine_store_misses_total counter
mergescale_engine_store_misses_total 0
# HELP mergescale_disk_puts_total Disk-cache entries written.
# TYPE mergescale_disk_puts_total counter
mergescale_disk_puts_total 1
# HELP mergescale_disk_put_skips_total Disk-cache writes skipped (unencodable values).
# TYPE mergescale_disk_put_skips_total counter
mergescale_disk_put_skips_total 1
# HELP mergescale_disk_write_errors_total Disk-cache envelope writes failed on file I/O.
# TYPE mergescale_disk_write_errors_total counter
mergescale_disk_write_errors_total 0
# HELP mergescale_disk_evictions_total Disk-cache LRU evictions.
# TYPE mergescale_disk_evictions_total counter
mergescale_disk_evictions_total 0
# HELP mergescale_disk_dropped_total Disk-cache entries dropped (corrupt/version/key mismatch).
# TYPE mergescale_disk_dropped_total counter
mergescale_disk_dropped_total 1
# HELP mergescale_disk_entries Disk-cache resident entries.
# TYPE mergescale_disk_entries gauge
mergescale_disk_entries 1
# HELP mergescale_disk_bytes Disk-cache resident bytes.
# TYPE mergescale_disk_bytes gauge
mergescale_disk_bytes 100
# HELP mergescale_store_breaker_state Disk-store circuit breaker state (0=closed, 1=half-open, 2=open).
# TYPE mergescale_store_breaker_state gauge
mergescale_store_breaker_state 0
# HELP mergescale_store_breaker_consecutive_faults Consecutive disk-store faults observed by the breaker.
# TYPE mergescale_store_breaker_consecutive_faults gauge
mergescale_store_breaker_consecutive_faults 0
# HELP mergescale_store_breaker_faults_total Disk-store operations that returned an infrastructure error.
# TYPE mergescale_store_breaker_faults_total counter
mergescale_store_breaker_faults_total 0
# HELP mergescale_store_breaker_short_circuited_total Disk-store operations answered locally while the breaker was open.
# TYPE mergescale_store_breaker_short_circuited_total counter
mergescale_store_breaker_short_circuited_total 0
# HELP mergescale_store_breaker_opened_total Breaker transitions into open.
# TYPE mergescale_store_breaker_opened_total counter
mergescale_store_breaker_opened_total 0
# HELP mergescale_store_breaker_half_opened_total Breaker transitions into half-open (recovery probes).
# TYPE mergescale_store_breaker_half_opened_total counter
mergescale_store_breaker_half_opened_total 0
# HELP mergescale_store_breaker_closed_total Breaker transitions back to closed (recoveries).
# TYPE mergescale_store_breaker_closed_total counter
mergescale_store_breaker_closed_total 0
# HELP mergescale_faults_injected_total Synthetic faults injected by the -faults profile.
# TYPE mergescale_faults_injected_total counter
mergescale_faults_injected_total 0
`

const bareStats = `{"engine":{"workers":2,"hits":1,"misses":1,"executed":1,"inline":2,"storeHits":0,"storeMisses":0}}
`

const bareReadyz = `{"status":"ok","store":"none"}
`

const bareMetrics = `# HELP mergescale_http_streams_rejected_total /run and /sweep requests rejected with 503 by the max-concurrent-streams cap.
# TYPE mergescale_http_streams_rejected_total counter
mergescale_http_streams_rejected_total 0
# HELP mergescale_http_request_timeouts_total Requests whose per-request deadline (-reqtimeout) expired.
# TYPE mergescale_http_request_timeouts_total counter
mergescale_http_request_timeouts_total 0
# HELP mergescale_engine_workers Engine worker-pool size (the Run caller counts as one).
# TYPE mergescale_engine_workers gauge
mergescale_engine_workers 2
# HELP mergescale_engine_cache_hits_total Engine memory-cache hits (singleflight shares included).
# TYPE mergescale_engine_cache_hits_total counter
mergescale_engine_cache_hits_total 1
# HELP mergescale_engine_cache_misses_total Engine memory-cache misses.
# TYPE mergescale_engine_cache_misses_total counter
mergescale_engine_cache_misses_total 1
# HELP mergescale_engine_jobs_executed_total Engine jobs actually executed (cache misses that computed).
# TYPE mergescale_engine_jobs_executed_total counter
mergescale_engine_jobs_executed_total 1
# HELP mergescale_engine_jobs_inline_total Engine jobs executed inline on the submitting goroutine.
# TYPE mergescale_engine_jobs_inline_total counter
mergescale_engine_jobs_inline_total 2
# HELP mergescale_engine_store_hits_total Disk-store hits observed by the engine.
# TYPE mergescale_engine_store_hits_total counter
mergescale_engine_store_hits_total 0
# HELP mergescale_engine_store_misses_total Disk-store misses observed by the engine.
# TYPE mergescale_engine_store_misses_total counter
mergescale_engine_store_misses_total 0
`
