// Package load is the trace-driven load harness for `mergescale serve`:
// it generates a deterministic request trace over the /run endpoints —
// and, with a grid configured, POST /sweep — (uniform, power-law-skewed,
// or bursty), replays it against a running server with a configurable
// number of closed-loop workers or at a constant open-loop arrival rate,
// and reports throughput plus tail latency (p50/p95/p99) split by
// render-cache temperature — cold requests paid for a real render, warm
// ones replayed a cached body (classified by the server's X-Render-Cache
// response header, so the split is exact, not inferred from timing).
//
// The CLI front end is `mergescale load`; the benchmark's browse workload
// tracks serving throughput and latency with spread across repeated runs.
package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Profile names a request-arrival/target-selection pattern.
type Profile string

const (
	// Uniform targets, closed-loop arrivals: every worker issues its
	// next request the moment the previous one completes.
	Uniform Profile = "uniform"
	// PowerLaw draws targets from a Zipf distribution over the target
	// list (first target hottest), modelling skewed real-world traffic;
	// arrivals are closed-loop like Uniform.
	PowerLaw Profile = "powerlaw"
	// Burst issues requests in synchronized waves of BurstSize separated
	// by BurstGap of idle time — the pattern that exposes stampedes.
	Burst Profile = "burst"
)

// Profiles lists the valid Profile values, for usage strings.
func Profiles() []Profile { return []Profile{Uniform, PowerLaw, Burst} }

// SweepTarget is the reserved target name that issues POST /sweep with
// the configured grid body instead of GET /run/{target}. It can appear
// anywhere in Config.Targets (mixed with experiment ids), so a trace can
// model clients interleaving canned experiments with parametric sweeps.
const SweepTarget = "sweep"

// Request is one trace element: a /run target (or SweepTarget) and its
// render format.
type Request struct {
	Target string `json:"target"`
	Format string `json:"format"`
}

// Config parameterizes one load run. Zero values take the documented
// defaults in Run.
type Config struct {
	// BaseURL of the running server, e.g. "http://127.0.0.1:8080".
	// Required.
	BaseURL string
	// Targets are the /run path values to exercise ("all" or experiment
	// ids). Empty discovers every experiment id from GET /experiments.
	Targets []string
	// Formats is the render-format mix, drawn uniformly per request.
	// Empty means {"text"}.
	Formats []string
	// Profile selects the trace shape; empty means Uniform.
	Profile Profile
	// Concurrency is the worker count (closed-loop); <= 0 means 8.
	Concurrency int
	// Requests is the trace length. 0 with Duration 0 means 100.
	Requests int
	// Duration, when > 0 and Requests == 0, issues requests until this
	// much wall clock has elapsed (in-flight requests finish).
	Duration time.Duration
	// Seed makes the trace deterministic; 0 means 1.
	Seed int64
	// Alpha is the power-law skew (Zipf s parameter, must be > 1 for
	// PowerLaw); <= 0 means 1.5.
	Alpha float64
	// BurstSize is the wave width for Burst; <= 0 means Concurrency.
	BurstSize int
	// BurstGap is the idle time between waves; <= 0 means 100ms.
	BurstGap time.Duration
	// Rate, when > 0, switches Uniform/PowerLaw arrivals from closed-loop
	// to open-loop: requests are issued at this constant rate (fixed
	// intervals of 1/Rate on an absolute schedule, immune to drift), each
	// in its own goroutine, regardless of whether earlier requests have
	// completed. Closed-loop arrivals hide server slowdowns — a slow
	// response delays the next request, so offered load degrades with the
	// server; open-loop keeps offering, exposing queueing collapse.
	// Incompatible with the Burst profile (which owns its arrival shape).
	Rate float64
	// SweepGrid is the JSON body POSTed for SweepTarget requests (the
	// POST /sweep request format). Required when Targets contains
	// SweepTarget; when set and Targets were discovered, SweepTarget is
	// appended to the discovered ids so sweeps join the mix.
	SweepGrid []byte
	// RetryMax, when > 0, arms retry of retryable failures. Backpressure
	// responses (429, 503) carry an explicit try-again from the server
	// and get up to RetryMax retries; other 5xx and transport failures
	// are as likely a bug as a blip and get (RetryMax+1)/2. Waits grow
	// exponentially from RetryBase with deterministic jitter, raised to
	// the server's Retry-After when it names a longer delay. Reported
	// latencies are per attempt (the final one), never including backoff
	// waits — retry must not poison the latency buckets.
	RetryMax int
	// RetryBase is the first retry's backoff; <= 0 means 100ms.
	RetryBase time.Duration
	// Client issues the requests; nil means a fresh http.Client with no
	// timeout (streams are long; cancellation comes from ctx).
	Client *http.Client
}

// Bucket summarizes the latency distribution of one request class.
// Times are milliseconds.
type Bucket struct {
	Requests int     `json:"requests"`
	P50Ms    float64 `json:"p50_ms"`
	P95Ms    float64 `json:"p95_ms"`
	P99Ms    float64 `json:"p99_ms"`
	MeanMs   float64 `json:"mean_ms"`
	MaxMs    float64 `json:"max_ms"`
}

// Result is the report of one load run. The protocol fields (profile,
// concurrency, trace length, seed, alpha, targets, formats) are echoed
// so a saved report documents how it was produced — compare reports only
// at equal protocol.
type Result struct {
	Go          string   `json:"go"`
	GOOS        string   `json:"goos"`
	GOARCH      string   `json:"goarch"`
	Profile     Profile  `json:"profile"`
	Concurrency int      `json:"concurrency"`
	Targets     []string `json:"targets"`
	Formats     []string `json:"formats"`
	Seed        int64    `json:"seed"`
	Alpha       float64  `json:"alpha,omitempty"`
	Rate        float64  `json:"rate,omitempty"`
	RetryMax    int      `json:"retry_max,omitempty"`

	Requests     int            `json:"requests"`
	Errors       int            `json:"errors"`
	StatusCounts map[string]int `json:"status_counts"`
	// Retried counts retries issued per class (throttle, unavailable,
	// server, transport); Exhausted counts requests whose final attempt
	// still failed retryably after the class's budget ran out. Both are
	// empty — and absent from the JSON — when retries are off or never
	// fired, so a healthy run's report bytes are unchanged.
	Retried         map[string]int `json:"retried,omitempty"`
	Exhausted       map[string]int `json:"exhausted,omitempty"`
	DurationSeconds float64        `json:"duration_seconds"`
	ReqPerSec       float64        `json:"req_per_sec"`
	BodyBytes       int64          `json:"body_bytes"`

	// Cold: responses that performed a render (X-Render-Cache miss or
	// bypass). Warm: responses replayed from the rendered-body cache
	// (hit). All: both plus errored requests.
	Cold Bucket `json:"cold"`
	Warm Bucket `json:"warm"`
	All  Bucket `json:"all"`
}

// Trace pregenerates the first n requests of cfg's deterministic trace —
// the exact sequence Run will issue (completion order varies with
// scheduling; the issued multiset does not). Exposed for tests and for
// inspecting what a profile does.
func Trace(cfg Config, n int) ([]Request, error) {
	pick, err := cfg.picker()
	if err != nil {
		return nil, err
	}
	trace := make([]Request, n)
	for i := range trace {
		trace[i] = pick()
	}
	return trace, nil
}

// picker validates the distribution knobs and returns the deterministic
// per-call request generator.
func (cfg Config) picker() (func() Request, error) {
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("load: no targets")
	}
	formats := cfg.Formats
	if len(formats) == 0 {
		formats = []string{"text"}
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))
	profile := cfg.Profile
	if profile == "" {
		profile = Uniform
	}
	var nextTarget func() string
	switch profile {
	case Uniform, Burst:
		nextTarget = func() string { return cfg.Targets[rng.Intn(len(cfg.Targets))] }
	case PowerLaw:
		alpha := cfg.Alpha
		if alpha <= 0 {
			alpha = 1.5
		}
		if alpha <= 1 {
			return nil, fmt.Errorf("load: powerlaw alpha must be > 1 (got %g)", alpha)
		}
		if len(cfg.Targets) == 1 {
			nextTarget = func() string { return cfg.Targets[0] }
		} else {
			zipf := rand.NewZipf(rng, alpha, 1, uint64(len(cfg.Targets)-1))
			nextTarget = func() string { return cfg.Targets[zipf.Uint64()] }
		}
	default:
		return nil, fmt.Errorf("load: unknown profile %q (have: uniform, powerlaw, burst)", profile)
	}
	return func() Request {
		return Request{Target: nextTarget(), Format: formats[rng.Intn(len(formats))]}
	}, nil
}

// sample is one completed request's measurement. With retries armed it
// describes the final attempt, carrying the whole request's retry tally.
type sample struct {
	latency time.Duration
	bytes   int64
	status  int
	warm    bool
	err     error
	// retryAfter is the server's Retry-After suggestion, zero when absent.
	retryAfter time.Duration
	// retried counts retries issued for this request, per class; nil when
	// none fired.
	retried map[string]int
	// exhausted names the class whose budget ran out with the request
	// still failing; "" when the request succeeded or was never retryable.
	exhausted string
}

// Retry classes: the category decides how persistent the client is.
const (
	classThrottle    = "throttle"    // 429: the server asked us to slow down
	classUnavailable = "unavailable" // 503: load shedding or a degraded replica
	classServer      = "server"      // other 5xx: maybe transient, maybe a bug
	classTransport   = "transport"   // connection failure or truncated body
)

// retryClass categorizes one attempt's outcome; "" means not retryable
// (success, or a 4xx the request itself caused, which a retry would
// only repeat).
func retryClass(s sample) string {
	if s.err != nil {
		return classTransport
	}
	switch {
	case s.status == http.StatusTooManyRequests:
		return classThrottle
	case s.status == http.StatusServiceUnavailable:
		return classUnavailable
	case s.status >= 500:
		return classServer
	}
	return ""
}

// retryBudget caps retries per class: explicit backpressure gets the
// full budget, everything else half (rounded up).
func retryBudget(class string, max int) int {
	if class == classThrottle || class == classUnavailable {
		return max
	}
	return (max + 1) / 2
}

// maxRetryWait bounds a single backoff so a tall exponent or an
// eccentric Retry-After cannot stall a worker for the rest of the run.
const maxRetryWait = 5 * time.Second

// retryJitter derives a deterministic factor in [0.5, 1.5) from the
// request identity and attempt number: reruns of one trace back off
// identically (no shared locked RNG), while concurrent retries of
// different requests still spread instead of thundering together.
func retryJitter(req Request, attempt int) float64 {
	h := fnv.New64a()
	io.WriteString(h, req.Target)
	io.WriteString(h, "\x00")
	io.WriteString(h, req.Format)
	fmt.Fprintf(h, "\x00%d", attempt)
	return 0.5 + float64(h.Sum64()>>11)/(1<<53)
}

// parseRetryAfter reads the delay-seconds form of a Retry-After header
// (the only form the server emits); anything else reads as zero.
func parseRetryAfter(v string) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// issue runs one trace element through the retry policy: retryable
// failures back off exponentially from RetryBase with deterministic
// jitter — raised to the server's Retry-After when it names a longer
// wait — and re-issue, until the failing class's budget runs out. The
// attempt counter is shared across classes (a request flapping between
// 503 and connection resets is one failing request, not two fresh
// budgets), and ctx cancellation stops the loop mid-wait.
func issue(ctx context.Context, client *http.Client, base string, cfg Config, req Request) sample {
	s := doRequest(ctx, client, base, cfg.SweepGrid, req)
	if cfg.RetryMax <= 0 {
		return s
	}
	baseWait := cfg.RetryBase
	if baseWait <= 0 {
		baseWait = 100 * time.Millisecond
	}
	for attempt := 0; ; attempt++ {
		class := retryClass(s)
		if class == "" || ctx.Err() != nil {
			return s
		}
		if attempt >= retryBudget(class, cfg.RetryMax) {
			s.exhausted = class
			return s
		}
		wait := time.Duration(float64(baseWait) * math.Pow(2, float64(attempt)) * retryJitter(req, attempt))
		if wait > maxRetryWait {
			wait = maxRetryWait
		}
		if s.retryAfter > wait {
			wait = s.retryAfter
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return s
		}
		retried := s.retried
		if retried == nil {
			retried = map[string]int{}
		}
		retried[class]++
		s = doRequest(ctx, client, base, cfg.SweepGrid, req)
		s.retried = retried
	}
}

// DiscoverTargets fetches the experiment ids a server exposes, for use
// as a Config.Targets default.
func DiscoverTargets(ctx context.Context, client *http.Client, baseURL string) ([]string, error) {
	if client == nil {
		client = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(baseURL, "/")+"/experiments", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("load: discover targets: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("load: discover targets: %s returned %s", req.URL, resp.Status)
	}
	var infos []struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		return nil, fmt.Errorf("load: discover targets: %w", err)
	}
	ids := make([]string, len(infos))
	for i, info := range infos {
		ids[i] = info.ID
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("load: server lists no experiments")
	}
	return ids, nil
}

// Run replays cfg's trace and reports the measured result. ctx cancels
// the run early (in-flight requests abort); a cancelled run still
// returns the samples gathered so far with ctx's error.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("load: BaseURL required")
	}
	base := strings.TrimRight(cfg.BaseURL, "/")
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	if len(cfg.Targets) == 0 {
		targets, err := DiscoverTargets(ctx, client, base)
		if err != nil {
			return nil, err
		}
		if len(cfg.SweepGrid) > 0 {
			targets = append(targets, SweepTarget)
		}
		cfg.Targets = targets
	}
	for _, t := range cfg.Targets {
		if t == SweepTarget && len(cfg.SweepGrid) == 0 {
			return nil, fmt.Errorf("load: target %q requires a sweep grid (SweepGrid / -sweepgrid)", SweepTarget)
		}
	}
	if cfg.Rate < 0 {
		return nil, fmt.Errorf("load: rate must be >= 0 (got %g)", cfg.Rate)
	}
	if cfg.Rate > 0 && cfg.Profile == Burst {
		return nil, fmt.Errorf("load: open-loop rate is incompatible with the burst profile (burst owns its arrival shape)")
	}
	if cfg.RetryMax < 0 {
		return nil, fmt.Errorf("load: retry max must be >= 0 (got %d)", cfg.RetryMax)
	}
	if cfg.RetryBase < 0 {
		return nil, fmt.Errorf("load: retry base must be >= 0 (got %s)", cfg.RetryBase)
	}
	if len(cfg.Formats) == 0 {
		cfg.Formats = []string{"text"}
	}
	if cfg.Profile == "" {
		cfg.Profile = Uniform
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Profile == PowerLaw && cfg.Alpha <= 0 {
		cfg.Alpha = 1.5
	}
	if cfg.Requests <= 0 && cfg.Duration <= 0 {
		cfg.Requests = 100
	}
	pick, err := cfg.picker()
	if err != nil {
		return nil, err
	}

	// The generator feeds a channel so the issued trace is one
	// deterministic sequence regardless of worker scheduling. Duration
	// mode keeps generating until the deadline; the workers drain what
	// remains and stop.
	requests := make(chan Request)
	samples := make(chan sample)
	start := time.Now()
	genCtx := ctx
	var cancelGen context.CancelFunc
	if cfg.Requests <= 0 {
		genCtx, cancelGen = context.WithDeadline(ctx, start.Add(cfg.Duration))
		defer cancelGen()
	}
	go func() {
		defer close(requests)
		for i := 0; cfg.Requests <= 0 || i < cfg.Requests; i++ {
			select {
			case requests <- pick():
			case <-genCtx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	switch {
	case cfg.Profile == Burst:
		wg.Add(1)
		go func() {
			defer wg.Done()
			runBursts(ctx, cfg, client, base, requests, samples)
		}()
	case cfg.Rate > 0:
		wg.Add(1)
		go func() {
			defer wg.Done()
			runOpenLoop(ctx, cfg, client, base, start, requests, samples)
		}()
	default:
		for w := 0; w < cfg.Concurrency; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for req := range requests {
					s := issue(ctx, client, base, cfg, req)
					select {
					case samples <- s:
					case <-ctx.Done():
						return
					}
				}
			}()
		}
	}
	go func() { wg.Wait(); close(samples) }()

	res := &Result{
		Go:          runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		Profile:     cfg.Profile,
		Concurrency: cfg.Concurrency,
		Targets:     cfg.Targets,
		Formats:     cfg.Formats,
		Seed:        cfg.Seed,
		Alpha:       cfg.Alpha,
		Rate:        cfg.Rate,
		RetryMax:    cfg.RetryMax,
	}
	if cfg.Profile != PowerLaw {
		res.Alpha = 0
	}
	var cold, warm, all []float64
	res.StatusCounts = make(map[string]int)
	for s := range samples {
		res.Requests++
		ms := float64(s.latency) / float64(time.Millisecond)
		all = append(all, ms)
		for class, n := range s.retried {
			if res.Retried == nil {
				res.Retried = make(map[string]int)
			}
			res.Retried[class] += n
		}
		if s.exhausted != "" {
			if res.Exhausted == nil {
				res.Exhausted = make(map[string]int)
			}
			res.Exhausted[s.exhausted]++
		}
		if s.err != nil {
			res.Errors++
			res.StatusCounts["error"]++
			continue
		}
		res.StatusCounts[fmt.Sprintf("%d", s.status)]++
		res.BodyBytes += s.bytes
		if s.status != http.StatusOK {
			res.Errors++
			continue
		}
		if s.warm {
			warm = append(warm, ms)
		} else {
			cold = append(cold, ms)
		}
	}
	res.DurationSeconds = time.Since(start).Seconds()
	if res.DurationSeconds > 0 {
		res.ReqPerSec = float64(res.Requests) / res.DurationSeconds
	}
	res.Cold = summarize(cold)
	res.Warm = summarize(warm)
	res.All = summarize(all)
	// genCtx's deadline is the normal end of a duration-mode run; only
	// the caller's own cancellation is an error.
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, nil
}

// runOpenLoop dispatches the trace at a constant rate: request i is
// issued at start + i/Rate on an absolute schedule (a late wakeup does
// not push later arrivals back, so the offered rate holds over the run),
// each in its own goroutine — issuance never waits for completions, so a
// server that can't keep up accumulates in-flight requests instead of
// silently receiving less load.
func runOpenLoop(ctx context.Context, cfg Config, client *http.Client, base string, start time.Time, requests <-chan Request, samples chan<- sample) {
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	var inflight sync.WaitGroup
	defer inflight.Wait()
	i := 0
	for req := range requests {
		due := start.Add(time.Duration(i) * interval)
		i++
		if wait := time.Until(due); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return
			}
		}
		inflight.Add(1)
		go func(req Request) {
			defer inflight.Done()
			s := issue(ctx, client, base, cfg, req)
			select {
			case samples <- s:
			case <-ctx.Done():
			}
		}(req)
	}
}

// runBursts dispatches the trace in synchronized waves: up to BurstSize
// requests fire together (bounded by Concurrency simultaneous
// connections), the wave drains, the generator idles for BurstGap, and
// the next wave fires.
func runBursts(ctx context.Context, cfg Config, client *http.Client, base string, requests <-chan Request, samples chan<- sample) {
	size := cfg.BurstSize
	if size <= 0 {
		size = cfg.Concurrency
	}
	gap := cfg.BurstGap
	if gap <= 0 {
		gap = 100 * time.Millisecond
	}
	sem := make(chan struct{}, cfg.Concurrency)
	for {
		var wave sync.WaitGroup
		n := 0
		for ; n < size; n++ {
			req, ok := <-requests
			if !ok {
				break
			}
			wave.Add(1)
			sem <- struct{}{}
			go func(req Request) {
				defer wave.Done()
				defer func() { <-sem }()
				s := issue(ctx, client, base, cfg, req)
				select {
				case samples <- s:
				case <-ctx.Done():
				}
			}(req)
		}
		wave.Wait()
		if n < size { // trace exhausted
			return
		}
		select {
		case <-time.After(gap):
		case <-ctx.Done():
			return
		}
	}
}

// doRequest issues one request — GET /run/{target}, or POST /sweep with
// the grid body for SweepTarget — and measures it end to end (first byte
// of the request to the last byte of the body).
func doRequest(ctx context.Context, client *http.Client, base string, sweepGrid []byte, req Request) sample {
	t0 := time.Now()
	var httpReq *http.Request
	var err error
	if req.Target == SweepTarget {
		httpReq, err = http.NewRequestWithContext(ctx, http.MethodPost,
			base+"/sweep?format="+url.QueryEscape(req.Format), bytes.NewReader(sweepGrid))
	} else {
		httpReq, err = http.NewRequestWithContext(ctx, http.MethodGet,
			base+"/run/"+url.PathEscape(req.Target)+"?format="+url.QueryEscape(req.Format), nil)
	}
	if err != nil {
		return sample{latency: time.Since(t0), err: err}
	}
	resp, err := client.Do(httpReq)
	if err != nil {
		return sample{latency: time.Since(t0), err: err}
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return sample{
		latency:    time.Since(t0),
		bytes:      n,
		status:     resp.StatusCode,
		warm:       resp.Header.Get("X-Render-Cache") == "hit",
		err:        err,
		retryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
	}
}

// summarize computes the latency bucket for one sample class.
func summarize(ms []float64) Bucket {
	b := Bucket{Requests: len(ms)}
	if len(ms) == 0 {
		return b
	}
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	b.P50Ms = percentile(sorted, 50)
	b.P95Ms = percentile(sorted, 95)
	b.P99Ms = percentile(sorted, 99)
	b.MeanMs = sum / float64(len(sorted))
	b.MaxMs = sorted[len(sorted)-1]
	return b
}

// percentile returns the q-th percentile (nearest-rank) of an ascending
// slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
