package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mergescale/internal/engine"
	"mergescale/internal/engine/diskcache"
	"mergescale/internal/experiments"
	"mergescale/internal/faults"
	"mergescale/internal/report"
	"mergescale/internal/serve"
)

// The traced run records spans from the harness's own files, around the
// calls into each layer: the op itself, serve.Server.Handler(), the
// engine.Store the engine reads and writes through, and report.Renderer.
// Calls into a layer are folded into one span per op and layer (first
// start, last end, call count, busy time), so tracing a 1024-point sweep
// does not allocate 2048 span records per op.

// span is one layer's activity within one op. Times are nanoseconds since
// the traced phase began.
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls"`
	Busy   int64  `json:"busy_ns"`
}

// layerSpans folds the calls into one layer, per op.
type layerSpans struct {
	name string
	t0   time.Time
	op   *atomic.Int64 // the op calls are charged to

	mu   sync.Mutex
	byOp map[int64]*span
}

func newLayerSpans(name string, t0 time.Time, op *atomic.Int64) *layerSpans {
	return &layerSpans{name: name, t0: t0, op: op, byOp: map[int64]*span{}}
}

// observe records one call that started at start and just returned.
func (l *layerSpans) observe(start time.Time) {
	l.observeOp(l.op.Load(), start)
}

func (l *layerSpans) observeOp(op int64, start time.Time) {
	end := time.Now()
	s0, s1 := int64(start.Sub(l.t0)), int64(end.Sub(l.t0))
	l.mu.Lock()
	defer l.mu.Unlock()
	sp := l.byOp[op]
	if sp == nil {
		sp = &span{Op: int(op), Name: l.name, Parent: "op", Start: s0}
		l.byOp[op] = sp
	}
	sp.End = s1
	sp.Calls++
	sp.Busy += s1 - s0
}

// opsBusy returns the time spent in the layer on behalf of timed ops;
// set-up requests run under negative op numbers.
func (l *layerSpans) opsBusy() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	var busy int64
	for op, sp := range l.byOp {
		if op >= 0 {
			busy += sp.Busy
		}
	}
	return time.Duration(busy)
}

// opBusy returns the time op spent in the layer.
func (l *layerSpans) opBusy(op int) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if sp := l.byOp[int64(op)]; sp != nil {
		return time.Duration(sp.Busy)
	}
	return 0
}

func (l *layerSpans) spans() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]span, 0, len(l.byOp))
	for _, sp := range l.byOp {
		out = append(out, *sp)
	}
	return out
}

// timedStore decorates the engine.Store the engine persists through.
type timedStore struct {
	inner    engine.Store
	get, put *layerSpans
}

func (s *timedStore) Get(key string) (any, bool) {
	t := time.Now()
	v, ok := s.inner.Get(key)
	s.get.observe(t)
	return v, ok
}

func (s *timedStore) Put(key string, val any) {
	t := time.Now()
	s.inner.Put(key, val)
	s.put.observe(t)
}

// timedRenderer decorates a report.Renderer.
type timedRenderer struct {
	inner report.Renderer
	emit  *layerSpans
}

func (r *timedRenderer) Begin() error {
	t := time.Now()
	err := r.inner.Begin()
	r.emit.observe(t)
	return err
}

func (r *timedRenderer) Element(el report.Element) error {
	t := time.Now()
	err := r.inner.Element(el)
	r.emit.observe(t)
	return err
}

func (r *timedRenderer) End() error {
	t := time.Now()
	err := r.inner.End()
	r.emit.observe(t)
	return err
}

// timedHandler decorates serve.Server.Handler(), charging each request to
// the op named in its opHeader.
func timedHandler(h http.Handler, l *layerSpans) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, err := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
		t := time.Now()
		h.ServeHTTP(w, r)
		if err == nil {
			l.observeOp(op, t)
		}
	})
}

// runtimeSample reads the Go runtime's GC and allocation counters.
type runtimeSample struct {
	gcCycles   uint64
	allocBytes uint64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return runtimeSample{gcCycles: s[0].Value.Uint64(), allocBytes: s[1].Value.Uint64()}
}

// stack is the serve stack assembled in-process exactly as `mergescale
// [-quick] -workers 2 [-cachedir DIR] serve` wires it: disk cache, circuit
// breaker, engine, server. When traced, the store and the handler are
// decorated.
type stack struct {
	disk    *diskcache.Store // nil without a disk cache
	eng     *engine.Engine
	url     string
	hs      *http.Server
	served  chan struct{}
	store   *timedStore // nil when untraced
	handler *layerSpans // nil when untraced
}

// openStack starts the stack on an ephemeral localhost port; dir "" runs
// it without a disk cache. With tr non-nil, the store and handler report
// into tr.
func openStack(dir string, quick bool, tr *tracer) (*stack, error) {
	st := &stack{served: make(chan struct{})}
	srv := &serve.Server{Opt: experiments.Options{Quick: quick}}
	cfg := engine.Config{Workers: 2}
	if dir != "" {
		disk, err := diskcache.Open(dir, diskcache.Options{})
		if err != nil {
			return nil, err
		}
		br := faults.NewBreaker(disk, faults.BreakerOptions{})
		st.disk, srv.Store, srv.Breaker, cfg.Store = disk, disk, br, br
		if tr != nil {
			st.store = &timedStore{inner: br, get: tr.layer("store.get"), put: tr.layer("store.put")}
			cfg.Store = st.store
		}
	}
	st.eng = engine.New(cfg)
	srv.Engine = st.eng
	var h http.Handler = srv.Handler()
	if tr != nil {
		st.handler = tr.layer("serve.handler")
		h = timedHandler(h, st.handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.url = "http://" + ln.Addr().String()
	st.hs = &http.Server{Handler: h}
	go func() {
		defer close(st.served)
		_ = st.hs.Serve(ln)
	}()
	return st, nil
}

// close shuts the server down and waits for its handlers to return.
func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		_ = s.hs.Close()
	}
	<-s.served
}

// tracer owns one traced phase: the clock its spans are relative to, the
// op calls are charged to, its layers and the op spans.
type tracer struct {
	t0     time.Time
	op     atomic.Int64
	layers []*layerSpans
	ops    []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) layer(name string) *layerSpans {
	l := newLayerSpans(name, t.t0, &t.op)
	t.layers = append(t.layers, l)
	return l
}

// opSpan records an op's root span.
func (t *tracer) opSpan(op int, start, end time.Time) {
	t.ops = append(t.ops, span{Op: op, Name: "op", Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Calls: 1,
		Busy: int64(end.Sub(start))})
}

// write saves every span as JSON lines under .bench_build/trace.
func (t *tracer) write(e *env, workloadName string) error {
	dir := filepath.Join(e.root, ".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workloadName, e.seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range t.ops {
		_ = enc.Encode(sp)
	}
	for _, l := range t.layers {
		for _, sp := range l.spans() {
			_ = enc.Encode(sp)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// profiler is a CPU profile of the traced phase; the harness's own client
// goroutines run under the clientLabel so their samples stay separate.
type profiler struct {
	path string
	f    *os.File
}

func startProfile(path string) (*profiler, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profiler{path: path, f: f}, nil
}

func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

// asClient runs fn with the pprof label that marks the harness's client.
func asClient(fn func()) {
	pprof.Do(context.Background(), pprof.Labels(clientLabelKey, clientLabelValue), func(context.Context) { fn() })
}

// perLayerUnits lists every per-layer metric besides the cpu.*_s ones,
// with its unit. A traced run reports all of them, zero where a layer
// takes no part in the workload. Per-op quantities are means over the
// traced ops; diskcache.bytes is the store's size after them.
var perLayerUnits = map[string]string{
	"sim.runs":               "count",
	"engine.executed":        "count",
	"engine.inline":          "count",
	"store.get_ms":           "ms",
	"store.put_ms":           "ms",
	"diskcache.puts":         "count",
	"diskcache.bytes":        "B",
	"engine.mem_hit_ratio":   "ratio",
	"engine.store_hit_ratio": "ratio",
	"report.emit_ms":         "ms",
	"serve.handler_ms":       "ms",
	"http.wire_ms":           "ms",
	"render.hit_ratio":       "ratio",
	"gc.cycles":              "count",
	"heap.alloc_mb":          "MB",
	"gen.late_ms":            "ms",
	"trace.overhead_pct":     "%",
}

// layerMetrics starts a per-layer report: CPU seconds per op for every
// profile bucket, and zero for every other per-layer metric.
func layerMetrics(cpu map[string]time.Duration, ops int) map[string]metric {
	m := map[string]metric{}
	for name, unit := range perLayerUnits {
		m[name] = metric{0, unit}
	}
	for _, l := range cpuLayers {
		m["cpu."+l+"_s"] = metric{cpu[l].Seconds() / float64(max(ops, 1)), "s"}
	}
	return m
}

// overheadPct is how much longer the traced ops took than the plain ones,
// by mean op time.
func overheadPct(plain, traced []float64) float64 {
	return (mean(traced)/mean(plain) - 1) * 100
}

// ratio is hits over lookups, 0 when there were none.
func ratio(hits, lookups uint64) float64 {
	if lookups == 0 {
		return 0
	}
	return float64(hits) / float64(lookups)
}
