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
// opt.Emit is excluded from the key, so StreamElements' per-target hooks
// never split the cache.
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

// StreamElements executes targets through eng and releases their report
// elements — table frames, rows, chart series — in target order as they
// are produced, so a sweep-shaped experiment's first table row reaches
// emit the moment its engine sub-job resolves, not when the whole
// experiment (or the whole run) does. It is the one run path behind the
// CLI's run and sweep, every HTTP stream in internal/serve, and the
// benchmark harness; eng is required (a serial, uncached engine is
// engine.New(engine.Config{Workers: 1, DisableCache: true})).
//
// Each target runs with opt.Emit wired into an in-order element release
// buffer: the head target's elements forward to emit live, later targets'
// elements park until every earlier target has fully delivered.
// Experiments that ignore opt.Emit (and targets satisfied from the cache,
// whose run function never executes — including duplicate submissions that
// join another caller's in-flight job) deliver by replaying
// doc.Elements() at release, so every document crosses emit exactly once
// and in exactly the order Document.Elements() defines. A consumer of
// this stream therefore renders byte-identically to a buffered RunAll.
//
// Completion is driven by the engine's per-job OnDone hook, so there is no
// polling: hooks fire on whichever goroutine resolved each job (a pool
// worker, or this goroutine via the caller-runs-inline invariant), and the
// buffer's lock serializes emit, so emit itself needs no synchronization.
//
// The first error — a failed target or an emit error — stops the stream:
// later elements are dropped, the derived context is cancelled so
// outstanding jobs stop computing for a consumer that is gone (a
// disconnected HTTP client must not keep burning simulator time), and
// StreamElements returns it. Cancelled jobs are never cached, so an
// aborted stream cannot poison later runs. There is no per-document error
// envelope: a target that fails after emitting (its elements already
// forwarded) leaves a truncated stream behind, exactly like a mid-stream
// renderer failure, and the documents released before it stay delivered.
func StreamElements(ctx context.Context, eng *engine.Engine, targets []Experiment, opt Options, emit func(report.Element) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	opt.Engine = eng
	rel := &elemReleaser{
		buf:     make([][]report.Element, len(targets)),
		emitted: make([]bool, len(targets)),
		outcome: make([]*Outcome, len(targets)),
		emit:    emit,
		cancel:  cancel,
	}
	jobs := make([]engine.Job, len(targets))
	for i, e := range targets {
		o := opt
		o.Emit = func(el report.Element) error { return rel.elem(i, el) }
		jobs[i] = experimentJob(e, o)
		jobs[i].OnDone = func(r engine.Result) { rel.done(i, outcomeOf(e, r)) }
	}
	eng.Run(ctx, jobs)
	return rel.err()
}

// elemReleaser is the element-granular release buffer behind
// StreamElements. head is the lowest target index not yet fully
// delivered: its live elements forward straight to emit, later targets
// buffer per index. When the head target's job resolves, its outcome is
// finalized (replaying doc.Elements() if it never emitted live) and head
// advances, flushing the next target's buffered prefix. One lock guards
// the buffer and serializes emit, so element order is total no matter
// which engine worker produces what.
type elemReleaser struct {
	mu      sync.Mutex
	head    int
	buf     [][]report.Element
	emitted []bool
	outcome []*Outcome
	emit    func(report.Element) error
	failure error
	stopped bool
	cancel  context.CancelFunc
}

// elem receives one live element from target i's opt.Emit hook. The
// returned error (the stream's first failure, if any) propagates back
// into the producing experiment's Emitter, which latches it and stops
// sending — the experiment keeps building its document regardless.
func (r *elemReleaser) elem(i int, el report.Element) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.emitted[i] = true
	if r.stopped {
		return r.failure
	}
	if i == r.head {
		if err := r.emit(el); err != nil {
			r.fail(err)
			return err
		}
		return nil
	}
	r.buf[i] = append(r.buf[i], el)
	return nil
}

// done parks target i's outcome and advances the head past every target
// that is now fully delivered.
func (r *elemReleaser) done(i int, o Outcome) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.outcome[i] = &o
	for r.head < len(r.outcome) {
		h := r.head
		// Flush elements the new head buffered while waiting its turn;
		// anything it emits from here on forwards live through elem.
		for len(r.buf[h]) > 0 {
			el := r.buf[h][0]
			r.buf[h] = r.buf[h][1:]
			if r.stopped {
				continue
			}
			if err := r.emit(el); err != nil {
				r.fail(err)
			}
		}
		out := r.outcome[h]
		if out == nil {
			return // head target still running; its elements stream live
		}
		if !r.stopped {
			if out.Err != nil {
				r.fail(fmt.Errorf("%s: %w", out.ID, out.Err))
			} else if !r.emitted[h] {
				// Cached, joined, or emit-unaware target: replay the full
				// fine-grained stream from the finished document.
				for _, el := range out.Doc.Elements() {
					if err := r.emit(el); err != nil {
						r.fail(err)
						break
					}
				}
			}
		}
		r.buf[h], r.outcome[h] = nil, nil // release the document once delivered
		r.head++
	}
}

// fail records the stream's first error and cancels outstanding jobs.
func (r *elemReleaser) fail(err error) {
	if r.stopped {
		return
	}
	r.failure = err
	r.stopped = true
	r.cancel()
}

// err returns the first stream error, once all jobs have resolved.
func (r *elemReleaser) err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failure
}
