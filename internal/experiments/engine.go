package experiments

import (
	"context"
	"fmt"
	"sync"

	"mergescale/internal/engine"
	"mergescale/internal/report"
)

// Outcome is the result of one experiment submitted through the engine.
type Outcome struct {
	Experiment
	Doc    *report.Document
	Err    error
	Cached bool
}

// RunAll executes targets through eng and returns every outcome — errored
// and cancelled ones included — in target order. It is the buffered
// reference for StreamElements: the engine returns results in submission
// order, so rendering the outcomes in turn gives the same bytes the stream
// does, only after the whole run.
func RunAll(ctx context.Context, eng *engine.Engine, targets []Experiment, opt Options) []Outcome {
	opt.Engine = eng
	jobs := make([]engine.Job, len(targets))
	for i, e := range targets {
		jobs[i] = experimentJob(e, opt)
	}
	outcomes := make([]Outcome, len(targets))
	for i, r := range eng.Run(ctx, jobs) {
		outcomes[i] = outcomeOf(targets[i], r)
	}
	return outcomes
}

// experimentJob wraps one experiment as an engine job keyed by cacheKey.
func experimentJob(e Experiment, opt Options) engine.Job {
	return engine.Job{
		ID:  e.ID,
		Key: cacheKey(e, opt),
		Fn: func(ctx context.Context) (any, error) {
			return e.Run(ctx, opt)
		},
	}
}

// outcomeOf converts one engine result into the experiment-level outcome.
func outcomeOf(e Experiment, r engine.Result) Outcome {
	o := Outcome{Experiment: e, Cached: r.Cached, Err: r.Err}
	if r.Err != nil {
		return o
	}
	doc, ok := r.Value.(*report.Document)
	if !ok {
		o.Err = fmt.Errorf("%s: unexpected result type %T", e.ID, r.Value)
		return o
	}
	o.Doc = doc
	return o
}

// StreamElements executes targets through eng and releases each target's
// document to emit, as its Document.Elements() stream, in target order:
// a document goes out the moment it and every earlier target have
// resolved, while later targets keep computing. The unit of release is
// the document — an experiment builds its whole document before any of it
// reaches emit — and the backends decide how much of it to write at once
// (text per table, json per document, markdown and csv per row), and
// the server flushes when the document ends. It is the
// one run path behind the CLI's run, every GET /run stream in
// internal/serve, and the benchmark harness; eng is required (a serial,
// uncached engine is engine.New(engine.Config{Workers: 1, DisableCache:
// true})). A consumer of this stream renders byte-identically to a
// buffered RunAll, because both replay the same documents in the same
// order.
//
// Completion is driven by the engine's per-job OnDone hook, so there is no
// polling: hooks fire on whichever goroutine resolved each job (a pool
// worker, or this goroutine via the caller-runs-inline invariant), and the
// releaser's lock serializes emit, so emit itself needs no
// synchronization.
//
// The first error — a failed target or an emit error — stops the stream:
// later documents are dropped, the derived context is cancelled so
// outstanding jobs stop computing for a consumer that is gone (a
// disconnected HTTP client must not keep burning simulator time), and
// StreamElements returns it. Cancelled jobs are never cached, so an
// aborted stream cannot poison later runs. A failed target emits nothing,
// so the stream ends after the last whole document released before it;
// only an emit error can cut a document short.
func StreamElements(ctx context.Context, eng *engine.Engine, targets []Experiment, opt Options, emit func(report.Element) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	opt.Engine = eng
	rel := &docReleaser{outcomes: make([]*Outcome, len(targets)), emit: emit, cancel: cancel}
	jobs := make([]engine.Job, len(targets))
	for i, e := range targets {
		jobs[i] = experimentJob(e, opt)
		jobs[i].OnDone = func(r engine.Result) { rel.done(i, outcomeOf(e, r)) }
	}
	eng.Run(ctx, jobs)
	return rel.err()
}

// docReleaser is the in-order document releaser behind StreamElements.
// head is the lowest target index not yet released; outcomes parks every
// later target that resolved first. One lock guards both and serializes
// emit, so element order is total no matter which engine worker resolves
// what.
type docReleaser struct {
	mu       sync.Mutex
	head     int
	outcomes []*Outcome
	emit     func(report.Element) error
	failure  error
	cancel   context.CancelFunc
}

// done parks target i's outcome and releases every document from the
// head up to the first target still running.
func (r *docReleaser) done(i int, o Outcome) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.outcomes[i] = &o
	for ; r.head < len(r.outcomes) && r.outcomes[r.head] != nil; r.head++ {
		out := r.outcomes[r.head]
		r.outcomes[r.head] = nil // drop the document once released
		if r.failure != nil {
			continue
		}
		if out.Err != nil {
			r.fail(fmt.Errorf("%s: %w", out.ID, out.Err))
			continue
		}
		for _, el := range out.Doc.Elements() {
			if err := r.emit(el); err != nil {
				r.fail(err)
				break
			}
		}
	}
}

// fail records the stream's first error and cancels outstanding jobs.
func (r *docReleaser) fail(err error) {
	r.failure = err
	r.cancel()
}

// err returns the first stream error, once all jobs have resolved.
func (r *docReleaser) err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failure
}
