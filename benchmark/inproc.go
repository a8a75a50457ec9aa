package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"mergescale/internal/engine"
	"mergescale/internal/engine/diskcache"
	"mergescale/internal/sim"
)

// counters is a snapshot of the in-process stack's counters.
type counters struct {
	eng          engine.Stats
	disk         diskcache.Stats
	diskBytes    int64
	rt           runtimeSample
	simRuns      uint64
	renderHits   uint64
	renderMisses uint64
}

// phase is one measured in-process phase. lat is each op's latency as the
// workload defines it; sent is the part from the actual send to the last
// byte, and late how long after its due time the op was sent (open loop
// only). A traced phase also holds counters from either side of the ops
// and the CPU profile's time per layer.
type phase struct {
	st   *stack
	hc   *http.Client
	lat  []float64
	sent []float64
	late []float64

	prof   *profiler // nil when untraced
	c0, c1 counters
	cpu    map[string]time.Duration
}

func (p *phase) read() (counters, error) {
	c := counters{eng: p.st.eng.Stats(), rt: readRuntime(), simRuns: sim.Runs()}
	if p.st.disk != nil {
		c.disk = p.st.disk.Stats()
		_, c.diskBytes = p.st.disk.Size()
	}
	body, err := do(p.hc, http.MethodGet, p.st.url+"/stats", -1, nil)
	if err != nil {
		return c, err
	}
	var stats struct {
		Render struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"render"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		return c, fmt.Errorf("/stats: %w", err)
	}
	c.renderHits, c.renderMisses = stats.Render.Hits, stats.Render.Misses
	return c, nil
}

// begin starts a traced phase: counters, then the CPU profile.
func (p *phase) begin(e *env, tr *tracer) error {
	if tr == nil {
		return nil
	}
	var err error
	if p.c0, err = p.read(); err != nil {
		return err
	}
	p.prof, err = startProfile(filepath.Join(e.work, "phase.pprof"))
	return err
}

// end stops a traced phase and attributes its profile.
func (p *phase) end() error {
	if p.prof == nil {
		return nil
	}
	if err := p.prof.stop(); err != nil {
		return err
	}
	var err error
	if p.c1, err = p.read(); err != nil {
		return err
	}
	p.cpu, err = cpuByLayer(p.prof.path)
	return err
}

// metrics reports the traced phase per op.
func (p *phase) metrics(tr *tracer) map[string]metric {
	n := len(p.lat)
	per := func(d uint64) float64 { return float64(d) / float64(n) }
	c0, c1 := p.c0, p.c1
	m := layerMetrics(p.cpu, n)
	set := func(name string, v float64) { m[name] = metric{v, perLayerUnits[name]} }

	set("sim.runs", per(c1.simRuns-c0.simRuns))
	set("engine.executed", per(c1.eng.Executed-c0.eng.Executed))
	set("engine.inline", per(c1.eng.Inline-c0.eng.Inline))
	hits, misses := c1.eng.Hits-c0.eng.Hits, c1.eng.Misses-c0.eng.Misses
	set("engine.mem_hit_ratio", ratio(hits, hits+misses))
	sh, sm := c1.eng.StoreHits-c0.eng.StoreHits, c1.eng.StoreMisses-c0.eng.StoreMisses
	set("engine.store_hit_ratio", ratio(sh, sh+sm))
	if p.st.store != nil {
		set("store.get_ms", ms(p.st.store.get.opsBusy())/float64(n))
		set("store.put_ms", ms(p.st.store.put.opsBusy())/float64(n))
	}
	set("diskcache.puts", per(c1.disk.Puts-c0.disk.Puts))
	set("diskcache.bytes", float64(c1.diskBytes))
	rh, rm := c1.renderHits-c0.renderHits, c1.renderMisses-c0.renderMisses
	set("render.hit_ratio", ratio(rh, rh+rm))
	set("gc.cycles", per(c1.rt.gcCycles-c0.rt.gcCycles))
	set("heap.alloc_mb", per(c1.rt.allocBytes-c0.rt.allocBytes)/(1<<20))

	handler := make([]float64, n)
	wire := make([]float64, n)
	for i := range n {
		handler[i] = ms(p.st.handler.opBusy(i))
		wire[i] = p.sent[i] - handler[i]
	}
	set("serve.handler_ms", median(handler))
	set("http.wire_ms", median(wire))
	if p.late != nil {
		set("gen.late_ms", quantile(p.late, 99))
	}
	return m
}
