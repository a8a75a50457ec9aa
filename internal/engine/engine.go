package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Config tunes an Engine.
type Config struct {
	// Workers bounds concurrent job execution; <= 0 selects
	// runtime.GOMAXPROCS(0).
	Workers int
	// DisableCache turns the result cache off (every job computes). It
	// disables the persistent Store as well.
	DisableCache bool
	// Store, when non-nil, is a second-level persistent result cache
	// (e.g. a diskcache.Store). It is consulted on memory-cache misses
	// and filled after successful computations; errored or cancelled jobs
	// are never persisted.
	Store Store
}

// Store is an optional persistent result cache layered under the in-memory
// singleflight cache. Implementations must be safe for concurrent use and
// strictly best-effort: Get returns (nil, false) for any entry it cannot
// produce (absent, corrupt, stale), and Put failures must be silent — a
// Store can make the engine faster, never broken.
type Store interface {
	Get(key string) (val any, ok bool)
	Put(key string, val any)
}

// Job is one unit of work.
type Job struct {
	// ID labels the job in results (not required to be unique).
	ID string
	// Key is the config-hash cache key. Jobs sharing a Key are computed
	// once: the first submitter runs Fn, later submitters wait for and
	// share its result. An empty Key disables caching for the job.
	Key string
	// Fn computes the result. It must honor ctx cancellation for prompt
	// shutdown and must be deterministic for its Key.
	Fn func(ctx context.Context) (any, error)
	// OnDone, when non-nil, is invoked exactly once with the job's Result
	// as soon as it is known — including cached, errored, and cancelled
	// results — and always before Run returns. It runs on whichever
	// goroutine resolved the job: a pool helper, or the goroutine that
	// called Run (which claims jobs too). Callbacks for different jobs may
	// fire concurrently and in any completion order, so they must
	// synchronize shared state themselves and should return quickly — a
	// slow callback occupies a worker slot. This is the
	// completion-notification hook the streaming experiment pipeline is
	// built on: consumers learn of each result without polling Run's
	// return slice.
	OnDone func(Result)
}

// Result is the outcome of one submitted job, reported in submission order.
type Result struct {
	ID     string
	Value  any
	Err    error
	Cached bool // satisfied by the cache (shared or replayed result)
}

// Stats counts cache traffic and execution modes since engine creation.
type Stats struct {
	Hits        uint64 // jobs satisfied by a cached or in-flight computation (memory)
	Misses      uint64 // cacheable jobs that missed the memory cache
	Executed    uint64 // job functions actually invoked
	Inline      uint64 // jobs run by the goroutine that called Run (it claims jobs alongside its helpers) — NOT a saturation signal by itself
	StoreHits   uint64 // memory misses satisfied by the persistent store
	StoreMisses uint64 // store lookups that fell through to computation
}

// Engine is a reusable bounded-concurrency job runner. The zero value is
// not usable; call New.
type Engine struct {
	workers int
	sem     chan struct{}
	noCache bool
	store   Store

	mu    sync.Mutex
	cache map[string]*cacheEntry

	hits        atomic.Uint64
	misses      atomic.Uint64
	executed    atomic.Uint64
	inline      atomic.Uint64
	storeHits   atomic.Uint64
	storeMisses atomic.Uint64
}

// cacheEntry is a singleflight slot. done is created lazily (under the
// engine mutex) by the first waiter and closed by the computing goroutine
// once val/err are set — most jobs never attract a waiter, so the common
// path allocates no channel. complete is the mutex-guarded "val/err are
// readable" flag for waiters that arrive after computation finished.
type cacheEntry struct {
	done     chan struct{}
	complete bool
	val      any
	err      error
}

// New creates an engine with cfg.Workers slots (GOMAXPROCS when <= 0).
func New(cfg Config) *Engine {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	// The goroutine calling Run participates as one of the w workers (it
	// claims jobs alongside the helpers it starts), so only w-1 helper
	// goroutines may run at once, engine-wide. Workers=1 is therefore
	// fully serial on the calling goroutine.
	e := &Engine{
		workers: w,
		sem:     make(chan struct{}, w-1),
		noCache: cfg.DisableCache,
		cache:   map[string]*cacheEntry{},
	}
	if !cfg.DisableCache {
		e.store = cfg.Store
	}
	return e
}

// Workers returns the concurrency bound.
func (e *Engine) Workers() int { return e.workers }

// Stats returns a snapshot of the counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Hits:        e.hits.Load(),
		Misses:      e.misses.Load(),
		Executed:    e.executed.Load(),
		Inline:      e.inline.Load(),
		StoreHits:   e.storeHits.Load(),
		StoreMisses: e.storeMisses.Load(),
	}
}

// Run executes jobs with at most Workers in flight and returns their
// results in submission order. It blocks until every job has finished or
// observed ctx cancellation. Run is safe for concurrent use and for
// nested calls from inside job functions. Jobs carrying an OnDone hook are
// additionally reported one by one, in completion order, as they resolve
// (see Job.OnDone); every hook has returned by the time Run does.
//
// Jobs are handed out by a claim loop: an atomic counter yields the next
// unstarted index to whichever goroutine asks first. Before each job it
// claims, the caller starts helpers while a pool slot is free and at least
// two jobs are unclaimed; helpers claim until the batch is exhausted. A
// long job on one goroutine therefore never holds back the jobs after it,
// and the caller waits only for jobs that are already running.
func (e *Engine) Run(ctx context.Context, jobs []Job) []Result {
	results := make([]Result, len(jobs))
	var next atomic.Int64
	// claim hands out the next unstarted job index; ok is false once every
	// job has been claimed.
	claim := func() (i int, ok bool) {
		i = int(next.Add(1) - 1)
		return i, i < len(jobs)
	}
	run := func(i int) {
		results[i] = e.exec(ctx, jobs[i])
		if jobs[i].OnDone != nil {
			jobs[i].OnDone(results[i])
		}
	}
	var wg sync.WaitGroup
	for {
		if len(jobs)-int(next.Load()) >= 2 {
			select {
			case e.sem <- struct{}{}:
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { <-e.sem }()
					for i, ok := claim(); ok; i, ok = claim() {
						run(i)
					}
				}()
				continue
			default:
			}
		}
		// The caller never waits for a slot: it claims work itself, so a
		// nested Run inside a saturated pool still makes progress.
		i, ok := claim()
		if !ok {
			break
		}
		e.inline.Add(1)
		run(i)
	}
	wg.Wait()
	return results
}

// exec runs one job through the cache.
func (e *Engine) exec(ctx context.Context, job Job) Result {
	if err := ctx.Err(); err != nil {
		return Result{ID: job.ID, Err: err}
	}
	if e.noCache || job.Key == "" {
		val, err := e.invoke(ctx, job)
		return Result{ID: job.ID, Value: val, Err: err}
	}

	for {
		e.mu.Lock()
		entry, ok := e.cache[job.Key]
		if !ok {
			entry = &cacheEntry{}
			e.cache[job.Key] = entry
			e.mu.Unlock()
			e.misses.Add(1)

			if e.store != nil {
				if v, ok := e.store.Get(job.Key); ok {
					e.storeHits.Add(1)
					entry.val = v
					e.finish(entry)
					return Result{ID: job.ID, Value: v, Cached: true}
				}
				e.storeMisses.Add(1)
			}

			// The store lookup may have blocked (slow disk, injected
			// latency); re-check the deadline before paying for the
			// computation. The cancellation path below evicts the entry so
			// waiters retry, same as a cancelled invoke.
			if err := ctx.Err(); err != nil {
				entry.err = err
			} else {
				entry.val, entry.err = e.invoke(ctx, job)
			}
			if isCancellation(entry.err) {
				// Do not poison the cache with a cancellation: drop the
				// entry (before marking it complete, so awakened waiters
				// re-look it up and find it gone) so a later run recomputes.
				e.mu.Lock()
				if e.cache[job.Key] == entry {
					delete(e.cache, job.Key)
				}
				e.mu.Unlock()
			} else if entry.err == nil && e.store != nil {
				// Persist only clean successes: errors may be transient and
				// cancelled jobs must never reach the disk (the -duration
				// rule and the memory cache's eviction both rely on it).
				e.store.Put(job.Key, entry.val)
			}
			e.finish(entry)
			return Result{ID: job.ID, Value: entry.val, Err: entry.err}
		}
		if entry.complete {
			// Computation already finished; val/err are stable.
			e.mu.Unlock()
			e.hits.Add(1)
			return Result{ID: job.ID, Value: entry.val, Err: entry.err, Cached: true}
		}
		if entry.done == nil {
			entry.done = make(chan struct{})
		}
		done := entry.done
		e.mu.Unlock()

		select {
		case <-done:
			if isCancellation(entry.err) && ctx.Err() == nil {
				// The computing submitter was cancelled, not us; the entry
				// has been evicted, so retry with our live context.
				continue
			}
			e.hits.Add(1)
			return Result{ID: job.ID, Value: entry.val, Err: entry.err, Cached: true}
		case <-ctx.Done():
			return Result{ID: job.ID, Err: ctx.Err()}
		}
	}
}

// finish marks entry's val/err as readable and wakes any waiters that
// materialized the lazy done channel.
func (e *Engine) finish(entry *cacheEntry) {
	e.mu.Lock()
	entry.complete = true
	if entry.done != nil {
		close(entry.done)
	}
	e.mu.Unlock()
}

// isCancellation reports whether err came from context cancellation or
// expiry rather than the job's own logic.
func isCancellation(err error) bool {
	return err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// invoke calls the job function, converting a panic into an error so one
// bad job cannot take down the whole sweep.
func (e *Engine) invoke(ctx context.Context, job Job) (val any, err error) {
	e.executed.Add(1)
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: job %q panicked: %v", job.ID, r)
		}
	}()
	return job.Fn(ctx)
}

// CacheLen returns the number of cached keys (including in-flight ones).
func (e *Engine) CacheLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.cache)
}
