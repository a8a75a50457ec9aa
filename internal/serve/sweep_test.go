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
	"mergescale/internal/engine/diskcache"
	"mergescale/internal/experiments"
	"mergescale/internal/report"
)

const sweepGrid = `{"apps":[{"f":0.975,"fcon":0.1,"fored":0.2},{"f":0.9}],"budgets":[64,256],"rs":[1,2,4,8,16]}`

// sweepGridReordered describes the same design space as sweepGrid with
// every axis shuffled and duplicated — the canonicalization test vector.
const sweepGridReordered = `{"apps":[{"f":0.9,"growth":"linear"},{"f":0.975,"fcon":0.1,"fored":0.2}],"budgets":[256,64,256],"rs":[16,8,4,2,1,16]}`

// postSweep issues one POST /sweep and returns status, X-Render-Cache
// and body.
func postSweep(t *testing.T, ts *httptest.Server, query, body string) (int, string, []byte) {
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
	return resp.StatusCode, resp.Header.Get("X-Render-Cache"), b
}

// bufferedSweep renders a grid the way `mergescale sweep` does without
// streaming: normalize, run to a document, Begin/Replay/End. HTTP bodies
// must match this byte for byte.
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
	doc, err := plan.Run(context.Background(), experiments.Options{Engine: engine.New(engine.Config{Workers: 1, DisableCache: true})})
	if err != nil {
		t.Fatal(err)
	}
	if err := doc.Replay(r); err != nil {
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
		status, _, body := postSweep(t, ts, "?format="+format, sweepGrid)
		if status != http.StatusOK {
			t.Fatalf("format=%s: status %d: %s", format, status, body)
		}
		if want := bufferedSweep(t, sweepGrid, format); !bytes.Equal(want, body) {
			t.Fatalf("format=%s: HTTP body differs from buffered rendering (%d vs %d bytes)", format, len(body), len(want))
		}
	}
}

// TestSweepReorderedGridIsWholeBodyHit is the acceptance gate: two
// differently-ordered spellings of one design space resolve to identical
// canonical keys, so the second request is a rendered-body cache hit —
// zero engine jobs, byte-identical bytes.
func TestSweepReorderedGridIsWholeBodyHit(t *testing.T) {
	srv := &Server{Engine: engine.New(engine.Config{Workers: 4})}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, cache, first := postSweep(t, ts, "", sweepGrid)
	if status != http.StatusOK || cache != "miss" {
		t.Fatalf("cold sweep: status %d cache %q", status, cache)
	}
	executed := srv.Engine.Stats().Executed
	if executed == 0 {
		t.Fatal("cold sweep executed no jobs")
	}

	status, cache, second := postSweep(t, ts, "", sweepGridReordered)
	if status != http.StatusOK {
		t.Fatalf("warm sweep: status %d", status)
	}
	if cache != "hit" {
		t.Fatalf("reordered equivalent grid got X-Render-Cache %q, want hit", cache)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("reordered equivalent grid returned different bytes")
	}
	if again := srv.Engine.Stats().Executed; again != executed {
		t.Fatalf("reordered equivalent grid executed %d new jobs, want 0", again-executed)
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _, body := postSweep(t, ts, tc.query, tc.body)
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
	status, _, body := postSweep(t, ts, "", sb.String())
	if status != http.StatusBadRequest || !bytes.Contains(body, []byte("exceeds cap")) {
		t.Fatalf("over-cap grid: status %d body %q", status, body)
	}
	if executed := srv.Engine.Stats().Executed; executed != 0 {
		t.Fatalf("over-cap grid executed %d engine jobs, want 0", executed)
	}
}

// TestSweepPinPersistsPointKeys: with the operator's pin cap set, a
// pinned sweep marks every canonical point key in the disk store, and
// with a pin file configured the set survives a store reopen — the
// restart-surviving pin path end to end.
func TestSweepPinPersistsPointKeys(t *testing.T) {
	dir := t.TempDir()
	pinFile := dir + "/pins.txt"
	store, err := diskcache.Open(dir, diskcache.Options{PinFile: pinFile})
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{
		Engine: engine.New(engine.Config{Workers: 2, Store: store}),
		Store:  store,
		PinCap: 64,
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	pinned := `{"apps":[{"f":0.9}],"budgets":[64],"rs":[1,2,4],"pin":true}`
	status, _, body := postSweep(t, ts, "", pinned)
	if status != http.StatusOK {
		t.Fatalf("pinned sweep: status %d: %s", status, body)
	}
	req, err := experiments.ParseSweepRequest(strings.NewReader(pinned))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range plan.Keys() {
		if !store.Pinned(key) {
			t.Fatalf("point key %s not pinned after pin:true sweep", key)
		}
	}

	reopened, err := diskcache.Open(dir, diskcache.Options{PinFile: pinFile})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range plan.Keys() {
		if !reopened.Pinned(key) {
			t.Fatalf("point key %s lost its pin across reopen", key)
		}
	}
}

// postPinnedSweep issues one pinned sweep and returns status plus the
// X-Sweep-Pin header.
func postPinnedSweep(t *testing.T, ts *httptest.Server, body string) (int, string) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /sweep: %v", err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatalf("POST /sweep: read body: %v", err)
	}
	return resp.StatusCode, resp.Header.Get("X-Sweep-Pin")
}

// TestSweepPinIgnoredWithoutPinCap: pinning is an operator grant. With
// PinCap unset (the default), "pin": true sweeps still serve 200 but pin
// nothing — a client cannot grow the LRU-exempt set on a server that
// never opted in.
func TestSweepPinIgnoredWithoutPinCap(t *testing.T) {
	dir := t.TempDir()
	store, err := diskcache.Open(dir, diskcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{
		Engine: engine.New(engine.Config{Workers: 2, Store: store}),
		Store:  store,
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, pin := postPinnedSweep(t, ts, `{"apps":[{"f":0.9}],"budgets":[64],"rs":[1,2,4],"pin":true}`)
	if status != http.StatusOK {
		t.Fatalf("pinned sweep without pin cap: status %d, want 200", status)
	}
	if pin != "off" {
		t.Fatalf("X-Sweep-Pin = %q, want off", pin)
	}
	if n := store.PinnedCount(); n != 0 {
		t.Fatalf("%d keys pinned on a server with no pin cap, want 0", n)
	}
}

// TestSweepPinCapDeclinesOverflow: the pin cap bounds the aggregate
// pinned-key count across requests. A request that would push past it is
// served normally but pins nothing (all-or-nothing, so the cap can never
// be overshot), while re-pinning an already-pinned grid stays free.
func TestSweepPinCapDeclinesOverflow(t *testing.T) {
	dir := t.TempDir()
	store, err := diskcache.Open(dir, diskcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{
		Engine: engine.New(engine.Config{Workers: 2, Store: store}),
		Store:  store,
		PinCap: 3,
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	threePoints := `{"apps":[{"f":0.9}],"budgets":[64],"rs":[1,2,4],"pin":true}`
	status, pin := postPinnedSweep(t, ts, threePoints)
	if status != http.StatusOK || pin != "ok" {
		t.Fatalf("in-cap pinned sweep: status %d X-Sweep-Pin %q, want 200/ok", status, pin)
	}
	if n := store.PinnedCount(); n != 3 {
		t.Fatalf("%d keys pinned after a 3-point pinned sweep, want 3", n)
	}

	// A different grid would exceed the cap: declined, nothing pinned.
	status, pin = postPinnedSweep(t, ts, `{"apps":[{"f":0.8}],"budgets":[64],"rs":[1,2],"pin":true}`)
	if status != http.StatusOK || pin != "declined" {
		t.Fatalf("over-cap pinned sweep: status %d X-Sweep-Pin %q, want 200/declined", status, pin)
	}
	if n := store.PinnedCount(); n != 3 {
		t.Fatalf("%d keys pinned after a declined sweep, want 3", n)
	}

	// The same grid again re-pins existing keys: free at the cap.
	status, pin = postPinnedSweep(t, ts, threePoints)
	if status != http.StatusOK || pin != "ok" {
		t.Fatalf("re-pinned sweep at cap: status %d X-Sweep-Pin %q, want 200/ok", status, pin)
	}
	if n := store.PinnedCount(); n != 3 {
		t.Fatalf("%d keys pinned after re-pinning the same grid, want 3", n)
	}
}
