// Package parallel is the native execution runtime used by the workload
// implementations: a fixed pool of long-lived workers (one per simulated
// thread), static-chunk parallel-for, and privatized per-thread reduction
// buffers.
//
// The MineBench applications the paper studies are pthreads programs with a
// fork-join structure per iteration: a parallel phase over the data points,
// a barrier, and a merging phase that combines per-thread partial results.
// This package reproduces that structure with goroutines. Each native run
// starts its own team and Closes it on return; the workers are reused
// across every phase and iteration of that run, so per-iteration timing
// measures the algorithm, not goroutine creation.
package parallel

import (
	"errors"
	"sync"
)

// Pool is a fixed-size team of worker goroutines identified by ids
// 0..Threads-1. The zero value is not usable; call NewPool and Close the
// team when done.
type Pool struct {
	threads int
	work    []chan func(id int)
	done    chan int
	wg      sync.WaitGroup
	closed  bool
	mu      sync.Mutex

	// For-scratch, reused across For calls so a parallel-for costs no
	// allocations: forFn is the one adapter closure (built in NewPool)
	// dispatching the current forBody over forRanges. Written only by the
	// orchestrating goroutine before the channel sends that publish them
	// to workers; For (like Run) is not safe for concurrent calls on one
	// pool.
	forBody   func(id, lo, hi int)
	forRanges []Range
	forFn     func(id int)
}

// NewPool starts a team of n workers. It returns an error when n < 1.
func NewPool(n int) (*Pool, error) {
	if n < 1 {
		return nil, errors.New("parallel: pool size must be >= 1")
	}
	p := &Pool{
		threads: n,
		work:    make([]chan func(int), n),
		done:    make(chan int, n),
	}
	p.forRanges = make([]Range, n)
	p.forFn = func(id int) {
		r := p.forRanges[id]
		if r.Lo < r.Hi {
			p.forBody(id, r.Lo, r.Hi)
		}
	}
	for i := 0; i < n; i++ {
		p.work[i] = make(chan func(int), 1)
		p.wg.Add(1)
		go p.worker(i)
	}
	return p, nil
}

func (p *Pool) worker(id int) {
	defer p.wg.Done()
	for fn := range p.work[id] {
		fn(id)
		p.done <- id
	}
}

// Threads returns the team size.
func (p *Pool) Threads() int { return p.threads }

// Run executes fn(id) on every worker and blocks until all complete.
// It panics if the pool has been closed (programming error, like using a
// closed channel).
func (p *Pool) Run(fn func(id int)) {
	for i := 0; i < p.threads; i++ {
		p.work[i] <- fn
	}
	for i := 0; i < p.threads; i++ {
		<-p.done
	}
}

// Close shuts the workers down. The pool must not be used afterwards.
// Close is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	for i := range p.work {
		close(p.work[i])
	}
	p.wg.Wait()
}

// Range describes the half-open index interval [Lo, Hi) a worker owns.
type Range struct{ Lo, Hi int }

// Split statically partitions n items across t threads as evenly as
// possible: the first n%t chunks receive one extra item, mirroring the
// OpenMP static schedule MineBench uses.
func Split(n, t int) []Range {
	if t < 1 {
		t = 1
	}
	return splitInto(make([]Range, t), n, t)
}

// splitInto writes the static partition into dst (len >= t) and returns
// dst[:t] — the allocation-free core of Split used by For's scratch.
func splitInto(dst []Range, n, t int) []Range {
	base := n / t
	rem := n % t
	lo := 0
	for i := 0; i < t; i++ {
		size := base
		if i < rem {
			size++
		}
		dst[i] = Range{Lo: lo, Hi: lo + size}
		lo += size
	}
	return dst[:t]
}

// For runs body(id, lo, hi) on every worker with the static partition of n
// items and blocks until all chunks are done. The partition and dispatch
// closure are pool-owned scratch, so a For call allocates nothing beyond
// the caller's body closure; like Run, For must not be called concurrently
// on one pool.
func (p *Pool) For(n int, body func(id, lo, hi int)) {
	splitInto(p.forRanges, n, p.threads)
	p.forBody = body
	p.Run(p.forFn)
	p.forBody = nil
}

// Privatized holds per-thread partial-result buffers for a reduction over
// `width` float64 elements: the "partial_centers" arrays of Algorithm 1.
type Privatized struct {
	width int
	bufs  [][]float64
}

// NewPrivatized allocates t buffers of the given width.
func NewPrivatized(t, width int) *Privatized {
	bufs := make([][]float64, t)
	for i := range bufs {
		bufs[i] = make([]float64, width)
	}
	return &Privatized{width: width, bufs: bufs}
}

// Buf returns thread id's private buffer.
func (pv *Privatized) Buf(id int) []float64 { return pv.bufs[id] }

// Width returns the element count per buffer.
func (pv *Privatized) Width() int { return pv.width }

// Threads returns the number of buffers.
func (pv *Privatized) Threads() int { return len(pv.bufs) }

// Reset zeroes every buffer; called at the top of each iteration.
func (pv *Privatized) Reset() {
	for _, b := range pv.bufs {
		for i := range b {
			b[i] = 0
		}
	}
}
