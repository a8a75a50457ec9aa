// Package engine is the concurrent experiment runtime: a bounded worker
// pool that executes heterogeneous jobs (paper artifacts, batched
// design-space sweeps, simulator and native runs) with per-job context
// cancellation, a two-level config-hash result cache, and deterministic
// output ordering.
//
// The engine is deliberately independent of the model and workload
// packages so that any layer — cmd/mergescale submitting whole
// experiments, internal/core running each sweep grid as one sub-job,
// internal/workload sharding simulator runs per core count — can fan out
// through the same pool.
//
// # Concurrency model
//
// Nested submission is safe: when every worker slot is busy (e.g. a sweep
// sharded from inside an experiment job), Run executes the job inline on
// the calling goroutine instead of queueing, so a job waiting for its own
// sub-jobs can never deadlock the pool. The Run caller therefore counts as
// one of the Config.Workers workers, and Workers: 1 is exactly serial
// execution on the calling goroutine. Keep this caller-runs-inline
// invariant when extending the engine.
//
// # Caching
//
// Level one is an in-process singleflight map: jobs sharing a Key are
// computed once, with later submitters waiting for and sharing the first
// submitter's result. Level two is an optional persistent Store
// (Config.Store, usually a diskcache.Store) consulted on memory misses and
// filled after successful computations, which is what makes a repeated
// run of the full experiment suite near-instant across processes.
// Errored and cancelled computations are never cached at either level.
//
// Cache keys come from Key, which hashes the %#v rendering of its parts
// with FNV-1a. Key parts must render deterministically: structs of
// scalars, strings and slices — never pointers or maps. Anything that
// affects a job's output must be in its key; anything that only affects
// scheduling (like which engine runs the job) must stay out.
//
// # Determinism contract
//
// Run returns results in submission order no matter which worker finishes
// first, and the cache returns the identical value computed by the first
// submitter of a key. A parallel run therefore yields a byte-identical
// result set to a serial run of the same jobs, provided the job functions
// themselves are deterministic.
package engine
