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
// Run dispatches a batch through a claim loop: an atomic counter hands the
// next unstarted job index to whichever goroutine asks first. The calling
// goroutine counts as one of the Config.Workers workers. While at least
// two jobs are unclaimed and a pool slot is free it starts a helper;
// otherwise it claims and runs the next job itself. Helpers claim jobs
// until the batch is exhausted, so a long job on one goroutine never holds
// back the jobs after it, and at most Workers-1 helpers exist engine-wide.
// Workers: 1 is exactly serial execution on the calling goroutine.
//
// Nested submission is safe: a job that submits sub-jobs (e.g. a sweep
// sharded from inside an experiment job) never waits for a pool slot — it
// claims its own sub-jobs — and Run waits only once every job has been
// claimed, that is, only for jobs that are already running. Keep this
// caller-claims invariant when extending the engine.
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
