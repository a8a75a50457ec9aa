package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mergescale/internal/engine"
	"mergescale/internal/experiments"
	"mergescale/internal/report"
)

// lookup is the join/finish form of a plain cache lookup: a miss that
// leads a new render abandons it at once, leaving the cache unchanged.
func lookup(c *renderCache, key renderKey) ([]byte, bool) {
	body, call, leader := c.join(key)
	if leader {
		c.finish(key, call, nil, false)
	}
	return body, body != nil
}

// store leads a render of key and publishes body as its clean result.
func store(t *testing.T, c *renderCache, key renderKey, body string) {
	t.Helper()
	_, call, leader := c.join(key)
	if !leader {
		t.Fatalf("join(%v) did not lead a new render", key)
	}
	c.finish(key, call, []byte(body), true)
}

func TestRenderCacheLRU(t *testing.T) {
	c := newRenderCache(2)
	kA := renderKey{target: "a", format: "text"}
	kB := renderKey{target: "b", format: "text"}
	kC := renderKey{target: "c", format: "text"}

	if _, ok := lookup(c, kA); ok {
		t.Fatal("empty cache hit")
	}
	store(t, c, kA, "aaa")
	store(t, c, kB, "bb")
	if body, ok := lookup(c, kA); !ok || string(body) != "aaa" {
		t.Fatalf("lookup(a) = %q, %v", body, ok)
	}
	// a was just used; inserting c must evict b.
	store(t, c, kC, "c")
	if _, ok := lookup(c, kB); ok {
		t.Error("LRU kept the least recently used entry")
	}
	if _, ok := lookup(c, kA); !ok {
		t.Error("LRU evicted the recently used entry")
	}
	hits, misses, _, entries, size := c.stats()
	if entries != 2 {
		t.Errorf("entries = %d, want 2", entries)
	}
	if size != int64(len("aaa")+len("c")) {
		t.Errorf("bytes = %d, want %d", size, len("aaa")+len("c"))
	}
	// Misses: the empty lookup, three stores, the evicted b.
	if hits != 2 || misses != 5 {
		t.Errorf("hits/misses = %d/%d, want 2/5", hits, misses)
	}
	// An evicted key leads a fresh render and is stored again.
	store(t, c, kB, "bbbb")
	if _, _, _, entries, size := c.stats(); entries != 2 || size != int64(len("bbbb")+len("aaa")) {
		t.Errorf("after re-store: entries=%d bytes=%d", entries, size)
	}
}

// TestRunResponseCacheHit drives /run twice and requires the repeat to be
// byte-identical, counted as a render-cache hit, and to execute no
// further engine jobs.
func TestRunResponseCacheHit(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 2})
	targets := []experiments.Experiment{mustByID(t, "table1"), mustByID(t, "fig4")}
	srv := &Server{Engine: eng, Opt: quick, Experiments: targets}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	readStats := func() (render renderStats, executed uint64) {
		code, body := get(t, ts, "/stats")
		if code != 200 {
			t.Fatalf("/stats = %d", code)
		}
		var payload struct {
			Engine struct {
				Executed uint64 `json:"executed"`
			} `json:"engine"`
			Render renderStats `json:"render"`
		}
		if err := json.Unmarshal(body, &payload); err != nil {
			t.Fatal(err)
		}
		return payload.Render, payload.Engine.Executed
	}

	code, cold := get(t, ts, "/run/all?format=markdown")
	if code != 200 {
		t.Fatalf("cold run = %d", code)
	}
	render, executedCold := readStats()
	if render.Misses == 0 || render.Hits != 0 {
		t.Fatalf("cold run: render stats %+v, want a miss and no hits", render)
	}
	if render.Entries != 1 || render.Bytes != int64(len(cold)) {
		t.Errorf("cold run: entries=%d bytes=%d, want 1 entry of %d bytes", render.Entries, render.Bytes, len(cold))
	}

	code, warm := get(t, ts, "/run/all?format=markdown")
	if code != 200 {
		t.Fatalf("warm run = %d", code)
	}
	if !bytes.Equal(cold, warm) {
		t.Error("cached body differs from rendered body")
	}
	render, executedWarm := readStats()
	if render.Hits != 1 {
		t.Errorf("warm run: hits = %d, want 1", render.Hits)
	}
	if executedWarm != executedCold {
		t.Errorf("warm run executed %d new jobs, want 0", executedWarm-executedCold)
	}

	// A different format misses and renders separately.
	if code, _ := get(t, ts, "/run/all?format=json"); code != 200 {
		t.Fatalf("json run = %d", code)
	}
	if render, _ := readStats(); render.Hits != 1 || render.Entries != 2 {
		t.Errorf("after json run: %+v, want 1 hit and 2 entries", render)
	}
}

// TestRunResponseCacheSkippedOnDuration locks the rule that wall-clock
// (nondeterministic) runs never enter or serve from the render cache.
func TestRunResponseCacheSkippedOnDuration(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 2})
	srv := &Server{
		Engine:      eng,
		Opt:         experiments.Options{Quick: true, UseDuration: true},
		Experiments: []experiments.Experiment{mustByID(t, "table1")},
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for i := 0; i < 2; i++ {
		if code, _ := get(t, ts, "/run/table1"); code != 200 {
			t.Fatalf("run %d = %d", i, code)
		}
	}
	hits, misses, _, entries, _ := srv.renderedBodies.stats()
	if hits != 0 || misses != 0 || entries != 0 {
		t.Errorf("duration runs touched the render cache: hits=%d misses=%d entries=%d", hits, misses, entries)
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

// TestRenderStampedeSingleRender is the ISSUE 6 regression test: N
// concurrent identical cold /run requests must perform exactly ONE
// render (and one engine execution) — before the render-cache
// singleflight, every client replayed the renderer over the shared
// documents. Observable through the /metrics render counters.
func TestRenderStampedeSingleRender(t *testing.T) {
	var runs atomic.Int32
	slow := fakeExperiment("slow", func(ctx context.Context) (*report.Document, error) {
		runs.Add(1)
		select {
		case <-time.After(100 * time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		d := &report.Document{ID: "slow", Title: "fake slow"}
		d.AddNote("rendered once")
		return d, nil
	})
	srv := &Server{
		Engine:      engine.New(engine.Config{Workers: 4}),
		Opt:         quick,
		Experiments: []experiments.Experiment{slow},
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const clients = 8
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body := get(t, ts, "/run/slow")
			if status != 200 {
				t.Errorf("client %d: status %d", i, status)
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()

	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Errorf("client %d saw different bytes than client 0", i)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("experiment executed %d times, want 1", got)
	}

	_, raw := get(t, ts, "/metrics")
	metrics := string(raw)
	if got := metricValue(t, metrics, "mergescale_renders_total"); got != 1 {
		t.Errorf("renders_total = %v for %d concurrent cold clients, want 1", got, clients)
	}
	// Every client past the leader was either coalesced onto the
	// in-flight render or (arriving later) served from the cache.
	coalesced := metricValue(t, metrics, "mergescale_render_cache_coalesced_total")
	hits := metricValue(t, metrics, "mergescale_render_cache_hits_total")
	if coalesced+hits != clients-1 {
		t.Errorf("coalesced(%v) + hits(%v) = %v, want %d", coalesced, hits, coalesced+hits, clients-1)
	}
}

// TestRenderLeaderFailureWakesFollowers: when the leading render fails,
// followers must not hang and must not serve a partial body — each
// retries (becoming the new leader) and surfaces the error itself.
func TestRenderLeaderFailureWakesFollowers(t *testing.T) {
	fail := fakeExperiment("fail", func(ctx context.Context) (*report.Document, error) {
		select {
		case <-time.After(50 * time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return nil, errors.New("deterministic failure")
	})
	srv := &Server{
		Engine:      engine.New(engine.Config{Workers: 4, DisableCache: true}),
		Opt:         quick,
		Experiments: []experiments.Experiment{fail},
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const clients = 3
	statuses := make([]int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], _ = get(t, ts, "/run/fail")
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("clients hung after leader failure")
	}
	for i, status := range statuses {
		if status != 500 {
			t.Errorf("client %d: status %d, want 500", i, status)
		}
	}
	if _, _, _, entries, _ := srv.renderedBodies.stats(); entries != 0 {
		t.Errorf("failed renders left %d cache entries, want 0", entries)
	}
}

// TestRenderCacheHitHasContentLength locks the chunked-hit bugfix: a
// warm /run response has a known length and must carry Content-Length
// (no chunked framing), with X-Render-Cache distinguishing hit from
// miss and the bytes identical either way.
func TestRenderCacheHitHasContentLength(t *testing.T) {
	srv := &Server{
		Engine:      engine.New(engine.Config{Workers: 2}),
		Opt:         quick,
		Experiments: []experiments.Experiment{mustByID(t, "table1")},
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cold, err := ts.Client().Get(ts.URL + "/run/table1")
	if err != nil {
		t.Fatal(err)
	}
	coldBody, _ := io.ReadAll(cold.Body)
	cold.Body.Close()
	if got := cold.Header.Get("X-Render-Cache"); got != "miss" {
		t.Errorf("cold X-Render-Cache = %q, want miss", got)
	}
	if cold.ContentLength > 0 {
		t.Errorf("cold (streamed) response advertised Content-Length %d, want chunked", cold.ContentLength)
	}

	warm, err := ts.Client().Get(ts.URL + "/run/table1")
	if err != nil {
		t.Fatal(err)
	}
	warmBody, _ := io.ReadAll(warm.Body)
	warm.Body.Close()
	if got := warm.Header.Get("X-Render-Cache"); got != "hit" {
		t.Errorf("warm X-Render-Cache = %q, want hit", got)
	}
	if warm.ContentLength != int64(len(warmBody)) {
		t.Errorf("warm Content-Length = %d, want %d", warm.ContentLength, len(warmBody))
	}
	if len(warm.TransferEncoding) != 0 {
		t.Errorf("warm response still chunked: %v", warm.TransferEncoding)
	}
	if warm.Header.Get("X-Content-Type-Options") != "nosniff" {
		t.Error("warm response lost X-Content-Type-Options")
	}
	if !bytes.Equal(coldBody, warmBody) {
		t.Error("hit bytes differ from rendered bytes")
	}
}

// TestRenderCacheConcurrency hammers join/finish from many goroutines
// under -race and then checks the accounting is exact: bytes equals the
// sum of resident bodies, entries never exceed the cap, and hits+misses
// equals the number of joins issued.
func TestRenderCacheConcurrency(t *testing.T) {
	const (
		workers = 8
		ops     = 500
		cap     = 4
	)
	c := newRenderCache(cap)
	keys := []renderKey{
		{target: "a", format: "text"}, {target: "b", format: "text"},
		{target: "c", format: "json"}, {target: "d", format: "csv"},
		{target: "e", format: "markdown"}, {target: "f", format: "text"},
	}
	var lookups atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				key := keys[(w*ops+i)%len(keys)]
				body, call, leader := c.join(key)
				lookups.Add(1)
				switch {
				case leader:
					// Renders alternately succeed and fail.
					if i%2 == 0 {
						c.finish(key, call, []byte(key.target+key.format), true)
					} else {
						c.finish(key, call, nil, false)
					}
				case body == nil:
					<-call.done
				}
			}
		}(w)
	}
	wg.Wait()

	hits, misses, _, entries, bytes := c.stats()
	if entries > cap {
		t.Errorf("entries = %d, cap is %d", entries, cap)
	}
	if hits+misses != lookups.Load() {
		t.Errorf("hits(%d) + misses(%d) = %d, want %d lookups", hits, misses, hits+misses, lookups.Load())
	}
	// Recompute resident bytes from the list and compare to the counter.
	c.mu.Lock()
	var want int64
	for el := c.order.Front(); el != nil; el = el.Next() {
		want += int64(len(el.Value.(*renderEntry).body))
	}
	if len(c.byKey) != c.order.Len() {
		t.Errorf("map has %d keys, list has %d entries", len(c.byKey), c.order.Len())
	}
	if len(c.inflight) != 0 {
		t.Errorf("%d in-flight calls leaked", len(c.inflight))
	}
	c.mu.Unlock()
	if bytes != want {
		t.Errorf("bytes counter = %d, resident bodies sum to %d", bytes, want)
	}
}

// TestRenderCacheJoinAfterFinishIsHit: once a leader finishes cleanly, a
// later join must be a plain cache hit, not a new flight.
func TestRenderCacheJoinAfterFinishIsHit(t *testing.T) {
	c := newRenderCache(4)
	key := renderKey{target: "x", format: "text"}
	_, call, leader := c.join(key)
	if !leader {
		t.Fatal("first join is not the leader")
	}
	c.finish(key, call, []byte("body"), true)
	body, call2, leader2 := c.join(key)
	if leader2 || call2 != nil || string(body) != "body" {
		t.Fatalf("join after finish = (%q, %v, %v), want cached body", body, call2, leader2)
	}
}
