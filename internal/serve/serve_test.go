package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mergescale/internal/engine"
	"mergescale/internal/engine/diskcache"
	"mergescale/internal/experiments"
	"mergescale/internal/report"
	"mergescale/internal/sim"
)

var quick = experiments.Options{Quick: true}

// bufferedCLI renders targets exactly the way the mergescale CLI does in
// its default buffered mode: RunAll, then Begin / per-document Replay /
// End on the chosen backend. HTTP bodies are compared against this.
func bufferedCLI(t *testing.T, eng *engine.Engine, targets []experiments.Experiment, opt experiments.Options, format string) []byte {
	t.Helper()
	var buf bytes.Buffer
	r, err := report.NewRenderer(format, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Begin(); err != nil {
		t.Fatal(err)
	}
	for _, o := range experiments.RunAll(context.Background(), eng, targets, opt) {
		if o.Err != nil {
			t.Fatalf("%s: %v", o.ID, o.Err)
		}
		if err := o.Doc.Replay(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// get fetches path from ts and returns status, body.
func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp.StatusCode, body
}

func TestHealthz(t *testing.T) {
	srv := &Server{Engine: engine.New(engine.Config{Workers: 1}), Opt: quick}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	status, body := get(t, ts, "/healthz")
	if status != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("/healthz = %d %q, want 200 \"ok\\n\"", status, body)
	}
}

func TestExperimentsListing(t *testing.T) {
	srv := &Server{Engine: engine.New(engine.Config{Workers: 1}), Opt: quick}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	status, body := get(t, ts, "/experiments")
	if status != http.StatusOK {
		t.Fatalf("/experiments = %d, want 200", status)
	}
	var infos []struct {
		ID    string `json:"id"`
		Title string `json:"title"`
	}
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatalf("/experiments does not parse: %v\n%s", err, body)
	}
	reg := experiments.Registry()
	if len(infos) != len(reg) {
		t.Fatalf("listed %d experiments, want %d", len(infos), len(reg))
	}
	for i, e := range reg {
		if infos[i].ID != e.ID || infos[i].Title != e.Title {
			t.Errorf("entry %d = %+v, want %s / %s", i, infos[i], e.ID, e.Title)
		}
	}
}

// TestRunFormatsMatchBufferedCLI is the byte-identity guarantee: streaming
// an experiment over chunked HTTP produces exactly the bytes the CLI's
// buffered renderer emits, for every backend.
func TestRunFormatsMatchBufferedCLI(t *testing.T) {
	target, err := experiments.ByID("table3")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Engine: engine.New(engine.Config{Workers: 2}), Opt: quick}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, format := range report.Formats() {
		want := bufferedCLI(t, engine.New(engine.Config{Workers: 1}), []experiments.Experiment{target}, quick, format)
		status, body := get(t, ts, "/run/table3?format="+format)
		if status != http.StatusOK {
			t.Fatalf("%s: status = %d, want 200", format, status)
		}
		if !bytes.Equal(body, want) {
			t.Errorf("%s: HTTP body differs from buffered CLI output (%d vs %d bytes)", format, len(body), len(want))
		}
	}

	// The bare path defaults to text.
	_, deflt := get(t, ts, "/run/table3")
	_, text := get(t, ts, "/run/table3?format=text")
	if !bytes.Equal(deflt, text) {
		t.Error("default format is not text")
	}
}

func TestRunBadRequests(t *testing.T) {
	srv := &Server{Engine: engine.New(engine.Config{Workers: 1}), Opt: quick}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if status, body := get(t, ts, "/run/fig99"); status != http.StatusNotFound || !strings.Contains(string(body), "unknown experiment") {
		t.Errorf("/run/fig99 = %d %q, want 404 unknown experiment", status, body)
	}
	if status, body := get(t, ts, "/run/table3?format=yaml"); status != http.StatusBadRequest || !strings.Contains(string(body), "unknown format") {
		t.Errorf("format=yaml = %d %q, want 400 unknown format", status, body)
	}
	if status, _ := get(t, ts, "/nope"); status != http.StatusNotFound {
		t.Errorf("/nope = %d, want 404", status)
	}
}

// fakeExperiment builds a registry entry around fn, for tests that need
// controllable run behavior.
func fakeExperiment(id string, fn func(context.Context) (*report.Document, error)) experiments.Experiment {
	return experiments.Experiment{
		ID:    id,
		Title: "fake " + id,
		Run: func(ctx context.Context, opt experiments.Options) (*report.Document, error) {
			return fn(ctx)
		},
	}
}

func mustByID(t *testing.T, id string) experiments.Experiment {
	t.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestRunErrorBeforeFirstByteIs500: an experiment that fails immediately
// must produce a clean 500 (no body byte has been sent yet), not a
// dropped connection; a failure after output has started must abort the
// connection rather than terminate the chunked body cleanly.
func TestRunErrorBeforeFirstByteIs500(t *testing.T) {
	fail := fakeExperiment("fail", func(ctx context.Context) (*report.Document, error) {
		return nil, errors.New("exploded before output")
	})
	ok := fakeExperiment("ok", func(ctx context.Context) (*report.Document, error) {
		d := &report.Document{ID: "ok", Title: "fine"}
		d.AddNote("fine")
		return d, nil
	})
	srv := &Server{
		Engine:      engine.New(engine.Config{Workers: 2}),
		Opt:         quick,
		Experiments: []experiments.Experiment{ok, fail},
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, body := get(t, ts, "/run/fail")
	if status != http.StatusInternalServerError {
		t.Fatalf("/run/fail = %d, want 500", status)
	}
	if !strings.Contains(string(body), "exploded before output") {
		t.Errorf("500 body missing the failure: %q", body)
	}

	// run/all renders "ok" first, so the stream is mid-flight when "fail"
	// errors: the connection must abort, surfacing as a read error.
	resp, err := ts.Client().Get(ts.URL + "/run/all")
	if err != nil {
		t.Fatalf("GET /run/all: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/run/all status = %d, want 200 (stream had started)", resp.StatusCode)
	}
	if _, err := io.ReadAll(resp.Body); err == nil {
		t.Error("mid-stream failure terminated the chunked body cleanly, want an aborted connection")
	}
}

// TestRunFlushesEachDocument gates the flush rule at the HTTP level: a
// released document reaches the client while later experiments still
// compute. The second experiment blocks until the client has read every
// byte of the first document from the /run/all body; if the server only
// flushed at the end, it would wait out its loud 30 s timeout instead.
func TestRunFlushesEachDocument(t *testing.T) {
	firstDoc := &report.Document{ID: "first", Title: "released first"}
	firstDoc.AddNote("first document, flushed on its own")
	first := fakeExperiment("first", func(ctx context.Context) (*report.Document, error) {
		return firstDoc, nil
	})
	read := make(chan struct{})
	var timedOut atomic.Bool
	second := fakeExperiment("second", func(ctx context.Context) (*report.Document, error) {
		select {
		case <-read:
		case <-time.After(30 * time.Second):
			timedOut.Store(true)
			return nil, errors.New("the client never received the first document")
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		d := &report.Document{ID: "second", Title: "released second"}
		d.AddNote("second document")
		return d, nil
	})
	srv := &Server{
		Engine:      engine.New(engine.Config{Workers: 2}),
		Opt:         quick,
		Experiments: []experiments.Experiment{first, second},
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The first document's bytes, as the text backend writes them.
	var prefix bytes.Buffer
	r, err := report.NewRenderer("text", &prefix)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := firstDoc.Replay(r); err != nil {
		t.Fatal(err)
	}

	resp, err := ts.Client().Get(ts.URL + "/run/all")
	if err != nil {
		t.Fatalf("GET /run/all: %v (second experiment timed out: %v)", err, timedOut.Load())
	}
	defer resp.Body.Close()
	got := make([]byte, prefix.Len())
	if _, err := io.ReadFull(resp.Body, got); err != nil {
		t.Fatalf("reading the first document: %v (second experiment timed out: %v)", err, timedOut.Load())
	}
	close(read)
	if timedOut.Load() {
		t.Fatal("the first document reached the client only after the second experiment gave up")
	}
	if !bytes.Equal(got, prefix.Bytes()) {
		t.Fatalf("body starts %q, want the first document %q", got, prefix.Bytes())
	}
	rest, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading the rest of the body: %v", err)
	}
	want := bufferedCLI(t, engine.New(engine.Config{Workers: 1}), srv.Experiments, quick, "text")
	if body := append(got, rest...); !bytes.Equal(body, want) {
		t.Errorf("/run/all body differs from the buffered rendering:\n%s\nwant:\n%s", body, want)
	}
}

// TestConcurrentIdenticalRequestsSingleflight: several clients asking for
// the same experiment at once must trigger exactly one computation — the
// engine's singleflight collapses them — observable both in the run count
// and through /stats: one execution, and every other client an engine
// hit (a memory-cache hit or a share of the in-flight job).
func TestConcurrentIdenticalRequestsSingleflight(t *testing.T) {
	var runs atomic.Int32
	slow := fakeExperiment("slow", func(ctx context.Context) (*report.Document, error) {
		runs.Add(1)
		select {
		case <-time.After(50 * time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		d := &report.Document{ID: "slow", Title: "fake slow"}
		d.AddNote("computed once")
		return d, nil
	})
	srv := &Server{
		Engine:      engine.New(engine.Config{Workers: 4}),
		Opt:         quick,
		Experiments: []experiments.Experiment{slow},
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const clients = 4
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := ts.Client().Get(ts.URL + "/run/slow")
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Errorf("experiment ran %d times for %d concurrent clients, want 1", got, clients)
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Errorf("client %d saw different bytes than client 0", i)
		}
	}

	status, body := get(t, ts, "/stats")
	if status != http.StatusOK {
		t.Fatalf("/stats = %d, want 200", status)
	}
	var stats struct {
		Engine struct {
			Executed uint64 `json:"executed"`
			Hits     uint64 `json:"hits"`
		} `json:"engine"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("/stats does not parse: %v\n%s", err, body)
	}
	if stats.Engine.Executed != 1 {
		t.Errorf("/stats executed = %d, want 1", stats.Engine.Executed)
	}
	if stats.Engine.Hits != clients-1 {
		t.Errorf("/stats hits = %d, want %d (singleflight shares)", stats.Engine.Hits, clients-1)
	}
}

// TestClientDisconnectCancelsJobs: dropping the HTTP connection mid-run
// must cancel the in-flight engine job through the request context, so a
// gone client stops burning simulator time.
func TestClientDisconnectCancelsJobs(t *testing.T) {
	started := make(chan struct{})
	finished := make(chan error, 1)
	block := fakeExperiment("block", func(ctx context.Context) (*report.Document, error) {
		close(started)
		select {
		case <-ctx.Done():
			finished <- ctx.Err()
			return nil, ctx.Err()
		case <-time.After(10 * time.Second):
			err := errors.New("job outlived its client")
			finished <- err
			return nil, err
		}
	})
	srv := &Server{
		Engine:      engine.New(engine.Config{Workers: 2}),
		Opt:         quick,
		Experiments: []experiments.Experiment{block},
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/run/block", nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := ts.Client().Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("experiment never started")
	}
	cancel() // client walks away

	select {
	case err := <-finished:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("job finished with %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("disconnect did not cancel the in-flight job")
	}
	<-done
}

// TestWarmDiskCacheRunAllOverHTTP: with a warm disk cache under the
// engine, GET /run/all must execute zero jobs, perform zero simulator
// machine runs, and serve bytes identical to the buffered CLI rendering.
func TestWarmDiskCacheRunAllOverHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	dir := t.TempDir()

	cold, err := diskcache.Open(dir, diskcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := bufferedCLI(t, engine.New(engine.Config{Workers: 2, Store: cold}), experiments.Registry(), quick, "text")

	warm, err := diskcache.Open(dir, diskcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Config{Workers: 2, Store: warm})
	srv := &Server{Engine: eng, Store: warm, Opt: quick}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	before := sim.Runs()
	status, body := get(t, ts, "/run/all")
	if status != http.StatusOK {
		t.Fatalf("/run/all = %d, want 200", status)
	}
	if ran := sim.Runs() - before; ran != 0 {
		t.Errorf("warm /run/all performed %d simulator machine runs, want 0", ran)
	}
	if got := eng.Stats().Executed; got != 0 {
		t.Errorf("warm /run/all executed %d jobs, want 0", got)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("warm /run/all body differs from buffered CLI output (%d vs %d bytes)", len(body), len(want))
	}

	// /stats must expose the disk traffic that made this possible.
	_, statsBody := get(t, ts, "/stats")
	var stats struct {
		Engine struct {
			StoreHits uint64 `json:"storeHits"`
		} `json:"engine"`
		Disk *struct {
			Entries int `json:"entries"`
		} `json:"disk"`
	}
	if err := json.Unmarshal(statsBody, &stats); err != nil {
		t.Fatalf("/stats does not parse: %v\n%s", err, statsBody)
	}
	if stats.Engine.StoreHits == 0 {
		t.Error("/stats reports zero disk hits after a warm run")
	}
	if stats.Disk == nil || stats.Disk.Entries == 0 {
		t.Errorf("/stats disk section missing or empty: %s", statsBody)
	}
}

// TestListenAndServeGracefulShutdown: cancelling the serve context must
// close the listener and return nil after in-flight work drains.
func TestListenAndServeGracefulShutdown(t *testing.T) {
	srv := &Server{Engine: engine.New(engine.Config{Workers: 1}), Opt: quick}
	ctx, cancel := context.WithCancel(context.Background())
	addrc := make(chan net.Addr, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- srv.ListenAndServe(ctx, "127.0.0.1:0", func(a net.Addr) { addrc <- a })
	}()

	var addr net.Addr
	select {
	case addr = <-addrc:
	case err := <-errc:
		t.Fatalf("ListenAndServe exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", addr))
	if err != nil {
		t.Fatalf("healthz against live server: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("shutdown returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down after context cancellation")
	}

	if _, err := http.Get(fmt.Sprintf("http://%s/healthz", addr)); err == nil {
		t.Error("listener still accepting connections after shutdown")
	}
}
