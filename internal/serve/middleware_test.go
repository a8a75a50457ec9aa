package serve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mergescale/internal/engine"
	"mergescale/internal/experiments"
	"mergescale/internal/report"
)

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
// never sheds.
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
