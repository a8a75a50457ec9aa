package serve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"mergescale/internal/engine"
	"mergescale/internal/experiments"
	"mergescale/internal/report"
)

// TestClientLimiterBucket unit-tests the token-bucket arithmetic with an
// injected clock.
func TestClientLimiterBucket(t *testing.T) {
	l := newClientLimiter(2, 2) // 2 req/s, burst 2
	now := time.Unix(1000, 0)
	l.now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		if ok, _ := l.allow("a"); !ok {
			t.Fatalf("burst request %d rejected", i)
		}
	}
	ok, retry := l.allow("a")
	if ok {
		t.Fatal("over-burst request admitted")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retry = %v, want within (0, 1s] at 2 req/s", retry)
	}
	// A different client has its own bucket.
	if ok, _ := l.allow("b"); !ok {
		t.Fatal("independent client rejected")
	}
	// Half a second refills one token at 2 req/s.
	now = now.Add(500 * time.Millisecond)
	if ok, _ := l.allow("a"); !ok {
		t.Fatal("refilled request rejected")
	}
	if ok, _ := l.allow("a"); ok {
		t.Fatal("second request admitted without refill")
	}
}

func TestClientLimiterDefaults(t *testing.T) {
	if l := newClientLimiter(0.5, 0); l.burst != 1 {
		t.Errorf("burst for 0.5 req/s = %v, want 1", l.burst)
	}
	if l := newClientLimiter(7, 0); l.burst != 7 {
		t.Errorf("burst for 7 req/s = %v, want 7", l.burst)
	}
}

// TestClientLimiterEviction fills the client map past its cap and checks
// it stays bounded.
func TestClientLimiterEviction(t *testing.T) {
	l := newClientLimiter(1, 1)
	now := time.Unix(1000, 0)
	l.now = func() time.Time { return now }
	for i := 0; i < maxTrackedClients+100; i++ {
		// Advance the clock so earlier buckets are refilled (idle) and
		// eligible for eviction.
		now = now.Add(2 * time.Second)
		l.allow("client-" + strconv.Itoa(i))
	}
	l.mu.Lock()
	n := len(l.clients)
	l.mu.Unlock()
	if n > maxTrackedClients {
		t.Errorf("limiter tracks %d clients, cap is %d", n, maxTrackedClients)
	}
}

// TestRateLimitOverHTTP: with -ratelimit 1 -rateburst 1, the second
// immediate request from one client gets 429 with Retry-After, while
// /healthz and /metrics stay exempt; the rejection shows up in /metrics.
func TestRateLimitOverHTTP(t *testing.T) {
	srv := &Server{
		Engine:      engine.New(engine.Config{Workers: 1}),
		Opt:         quick,
		Experiments: []experiments.Experiment{mustByID(t, "table1")},
		RateLimit:   1,
		RateBurst:   1,
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if status, _ := get(t, ts, "/run/table1"); status != http.StatusOK {
		t.Fatalf("first request = %d, want 200", status)
	}
	resp, err := ts.Client().Get(ts.URL + "/run/table1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want integer seconds >= 1", ra)
	}

	// Probes and scrapes are never limited.
	for i := 0; i < 5; i++ {
		if status, _ := get(t, ts, "/healthz"); status != http.StatusOK {
			t.Fatalf("limited /healthz = %d on attempt %d", status, i)
		}
	}
	status, raw := get(t, ts, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("limited /metrics = %d", status)
	}
	if got := metricValue(t, string(raw), "mergescale_http_rate_limited_total"); got < 1 {
		t.Errorf("rate_limited_total = %v, want >= 1", got)
	}
	if got := metricValue(t, string(raw), `mergescale_http_requests_total{endpoint="/run",format="text",code="429"}`); got < 1 {
		t.Errorf("429s missing from request counter: %v", got)
	}
}

// TestMaxStreamsOverHTTP: with MaxStreams 1 and one stream parked
// mid-render, a concurrent /run gets an immediate 503 with Retry-After;
// after the first stream finishes, requests flow again.
func TestMaxStreamsOverHTTP(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	slow := fakeExperiment("slow", func(ctx context.Context) (*report.Document, error) {
		close(started)
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		d := &report.Document{ID: "slow", Title: "slow"}
		d.AddNote("done")
		return d, nil
	})
	srv := &Server{
		Engine:      engine.New(engine.Config{Workers: 2}),
		Opt:         quick,
		Experiments: []experiments.Experiment{slow},
		MaxStreams:  1,
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	firstDone := make(chan int, 1)
	go func() {
		status, _ := get(t, ts, "/run/slow")
		firstDone <- status
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("first stream never started")
	}

	resp, err := ts.Client().Get(ts.URL + "/run/slow")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-cap request = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}

	close(release)
	if status := <-firstDone; status != http.StatusOK {
		t.Fatalf("first stream = %d, want 200", status)
	}
	if status, _ := get(t, ts, "/run/slow"); status != http.StatusOK {
		t.Fatalf("post-drain request = %d, want 200", status)
	}

	_, raw := get(t, ts, "/metrics")
	if got := metricValue(t, string(raw), "mergescale_http_streams_rejected_total"); got != 1 {
		t.Errorf("streams_rejected_total = %v, want 1", got)
	}
	if got := metricValue(t, string(raw), "mergescale_http_streams_active"); got != 0 {
		t.Errorf("streams_active = %v after drain, want 0", got)
	}
}

// TestLimitsOffByDefault locks the flag contract: a zero-value Server
// never rate-limits or sheds.
func TestLimitsOffByDefault(t *testing.T) {
	srv := &Server{
		Engine:      engine.New(engine.Config{Workers: 2}),
		Opt:         quick,
		Experiments: []experiments.Experiment{mustByID(t, "table1")},
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for i := 0; i < 20; i++ {
		if status, _ := get(t, ts, "/run/table1"); status != http.StatusOK {
			t.Fatalf("request %d = %d with limits off, want 200", i, status)
		}
	}
}

// TestRateLimitedRunSkipsWork: a 429 must not touch the engine
// (admission happens before any work).
func TestRateLimitedRunSkipsWork(t *testing.T) {
	var runs int
	exp := fakeExperiment("counted", func(ctx context.Context) (*report.Document, error) {
		runs++
		d := &report.Document{ID: "counted", Title: "counted"}
		d.AddNote("n")
		return d, nil
	})
	srv := &Server{
		Engine:      engine.New(engine.Config{Workers: 1}),
		Opt:         quick,
		Experiments: []experiments.Experiment{exp},
		RateLimit:   0.001, // one token, then effectively no refill
		RateBurst:   1,
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	get(t, ts, "/run/counted")
	for i := 0; i < 3; i++ {
		if status, _ := get(t, ts, "/run/counted"); status != http.StatusTooManyRequests {
			t.Fatalf("request %d = %d, want 429", i, status)
		}
	}
	if runs != 1 {
		t.Errorf("experiment ran %d times, want 1 (429s must not execute)", runs)
	}
}
