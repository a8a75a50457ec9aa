package serve

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"mergescale/internal/engine"
	"mergescale/internal/experiments"
	"mergescale/internal/report"
)

const sweepGrid = `{"apps":[{"f":0.975,"fcon":0.1,"fored":0.2},{"f":0.9}],"budgets":[64,256],"rs":[1,2,4,8,16]}`

// sweepGridReordered describes the same design space as sweepGrid with
// every axis shuffled and duplicated — the canonicalization test vector.
const sweepGridReordered = `{"apps":[{"f":0.9,"growth":"linear"},{"f":0.975,"fcon":0.1,"fored":0.2}],"budgets":[256,64,256],"rs":[16,8,4,2,1,16]}`

// postSweep issues one POST /sweep and returns status and body.
func postSweep(t *testing.T, ts *httptest.Server, query, body string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/sweep"+query, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /sweep: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST /sweep: read body: %v", err)
	}
	return resp.StatusCode, b
}

// bufferedSweep renders a grid into a buffer the way `mergescale sweep`
// does: normalize, then Begin, the plan's elements, End. HTTP bodies must
// match this byte for byte.
func bufferedSweep(t *testing.T, grid, format string) []byte {
	t.Helper()
	req, err := experiments.ParseSweepRequest(strings.NewReader(grid))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	r, err := report.NewRenderer(format, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := plan.Run(context.Background(), r.Element); err != nil {
		t.Fatal(err)
	}
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSweepEndpointMatchesBufferedRender: in every format, the streamed
// POST /sweep body is byte-identical to the serial buffered rendering of
// the same grid (hence to the `mergescale sweep` CLI, which drives that
// exact pipeline).
func TestSweepEndpointMatchesBufferedRender(t *testing.T) {
	srv := &Server{Engine: engine.New(engine.Config{Workers: 4})}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, format := range []string{"text", "markdown", "json", "csv"} {
		status, body := postSweep(t, ts, "?format="+format, sweepGrid)
		if status != http.StatusOK {
			t.Fatalf("format=%s: status %d: %s", format, status, body)
		}
		if want := bufferedSweep(t, sweepGrid, format); !bytes.Equal(want, body) {
			t.Fatalf("format=%s: HTTP body differs from buffered rendering (%d vs %d bytes)", format, len(body), len(want))
		}
	}
}

// TestSweepReorderedGridSameBytes: two differently-ordered spellings of
// one design space normalize to one plan, so they stream byte-identical
// bodies, and neither request runs an engine job.
func TestSweepReorderedGridSameBytes(t *testing.T) {
	srv := &Server{Engine: engine.New(engine.Config{Workers: 4})}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, first := postSweep(t, ts, "", sweepGrid)
	if status != http.StatusOK {
		t.Fatalf("first sweep: status %d", status)
	}
	status, second := postSweep(t, ts, "", sweepGridReordered)
	if status != http.StatusOK {
		t.Fatalf("reordered sweep: status %d", status)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("reordered equivalent grid returned different bytes")
	}
	if executed := srv.Engine.Stats().Executed; executed != 0 {
		t.Fatalf("two sweeps executed %d engine jobs, want 0", executed)
	}
}

// TestSweepBadRequests: malformed grids get a one-line 400 and never
// create an engine job.
func TestSweepBadRequests(t *testing.T) {
	srv := &Server{Engine: engine.New(engine.Config{Workers: 2})}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cases := []struct {
		name, query, body string
	}{
		{"bad format", "?format=yaml", sweepGrid},
		{"empty body", "", ""},
		{"invalid json", "", `{"apps":`},
		{"unknown field", "", `{"apps":[{"f":0.9,"label":"x"}],"budgets":[64]}`},
		{"no apps", "", `{"apps":[],"budgets":[64]}`},
		{"zero budget", "", `{"apps":[{"f":0.9}],"budgets":[0]}`},
		{"negative budget", "", `{"apps":[{"f":0.9}],"budgets":[-4]}`},
		{"r below one", "", `{"apps":[{"f":0.9}],"budgets":[64],"rs":[0.5]}`},
		{"trailing data", "", sweepGrid + `{"x":1}`},
		{"pin field", "", `{"apps":[{"f":0.9}],"budgets":[64],"pin":true}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := postSweep(t, ts, tc.query, tc.body)
			if status != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (body %q)", status, body)
			}
			if n := bytes.Count(bytes.TrimRight(body, "\n"), []byte("\n")); n != 0 {
				t.Fatalf("400 body spans multiple lines: %q", body)
			}
		})
	}
	if executed := srv.Engine.Stats().Executed; executed != 0 {
		t.Fatalf("bad requests executed %d engine jobs, want 0", executed)
	}
}

// TestSweepOverCapRejected: a grid over MaxSweepPoints is refused before
// any work.
func TestSweepOverCapRejected(t *testing.T) {
	srv := &Server{Engine: engine.New(engine.Config{Workers: 2})}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var sb strings.Builder
	sb.WriteString(`{"apps":[{"f":0.9}],"budgets":[1048576],"rs":[`)
	for i := 0; i <= experiments.MaxSweepPoints; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(i + 1))
	}
	sb.WriteString(`]}`)
	status, body := postSweep(t, ts, "", sb.String())
	if status != http.StatusBadRequest || !bytes.Contains(body, []byte("exceeds cap")) {
		t.Fatalf("over-cap grid: status %d body %q", status, body)
	}
	if executed := srv.Engine.Stats().Executed; executed != 0 {
		t.Fatalf("over-cap grid executed %d engine jobs, want 0", executed)
	}
}

// TestNoEngineStateAfterSweeps is the bounded-memory guard: sweep points
// are plain arithmetic, so a stream of distinct grids executes no engine
// job and leaves nothing in the engine's memory cache: nothing in the
// process remembers a sweep.
func TestNoEngineStateAfterSweeps(t *testing.T) {
	srv := &Server{Engine: engine.New(engine.Config{Workers: 2})}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, grid := range []string{
		sweepGrid,
		`{"apps":[{"f":0.8,"fcon":0.3}],"budgets":[16],"rs":[1,2,4]}`,
		`{"apps":[{"f":0.99,"fored":0.5,"growth":"amdahl"}],"budgets":[128]}`,
	} {
		status, body := postSweep(t, ts, "", grid)
		if status != http.StatusOK {
			t.Fatalf("sweep %s: status %d: %s", grid, status, body)
		}
	}
	if n := srv.Engine.CacheLen(); n != 0 {
		t.Fatalf("engine memory cache holds %d entries after three sweeps, want 0", n)
	}
	if executed := srv.Engine.Stats().Executed; executed != 0 {
		t.Fatalf("three sweeps executed %d engine jobs, want 0", executed)
	}
}

// cancelOnWrite cancels the request's context the first time body bytes
// reach the response, and passes flushes through.
type cancelOnWrite struct {
	http.ResponseWriter
	cancel context.CancelFunc
}

func (c *cancelOnWrite) Write(p []byte) (int, error) {
	c.cancel()
	return c.ResponseWriter.Write(p)
}

func (c *cancelOnWrite) Flush() { c.ResponseWriter.(http.Flusher).Flush() }

// TestSweepFailureBeforeFirstFlushDropsConnection pins the failure shape
// of the once-per-document flush: a sweep cancelled after its first body
// bytes, with far less than net/http's response buffer rendered, fails
// before anything is flushed, so the client sees the connection close
// before any status line, neither a clean 200 nor an error status.
func TestSweepFailureBeforeFirstFlushDropsConnection(t *testing.T) {
	srv := &Server{Engine: engine.New(engine.Config{Workers: 1})}
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithCancel(r.Context())
		defer cancel()
		h.ServeHTTP(&cancelOnWrite{ResponseWriter: w, cancel: cancel}, r.WithContext(ctx))
	}))
	defer ts.Close()
	if n := len(bufferedSweep(t, sweepGrid, "csv")); n >= 2048 {
		t.Fatalf("grid renders %d bytes; the test needs a body smaller than the response buffer", n)
	}

	resp, err := ts.Client().Post(ts.URL+"/sweep?format=csv", "application/json", strings.NewReader(sweepGrid))
	if err == nil {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("cancelled sweep answered status %d with %d body bytes, want the connection closed before a status line", resp.StatusCode, len(body))
	}
}
