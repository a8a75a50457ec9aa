// Package shapepool provides a tiny registry mapping a comparable "shape"
// key (a machine config, a buffer geometry) to its sync.Pool of reusable
// objects. Two subsystems pool shape-keyed objects — simulator machines
// and privatized reduction buffers — and both need the same
// double-checked RWMutex map rather than a
// sync.Map, because sync.Map would box the (often large, struct-typed) key
// into an interface on every Load: an allocation per acquire/release on
// exactly the paths pooling exists to keep allocation-free.
package shapepool

import "sync"

// Registry maps shape keys to free lists. The zero value is ready to use;
// a Registry must not be copied after first use.
type Registry[K comparable] struct {
	mu sync.RWMutex
	m  map[K]*sync.Pool
}

// For returns the pool for shape k, creating it on first use. The fast
// path is a read-locked map lookup with no allocations.
func (r *Registry[K]) For(k K) *sync.Pool {
	r.mu.RLock()
	p := r.m[k]
	r.mu.RUnlock()
	if p != nil {
		return p
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if p = r.m[k]; p != nil {
		return p
	}
	if r.m == nil {
		r.m = make(map[K]*sync.Pool)
	}
	p = new(sync.Pool)
	r.m[k] = p
	return p
}
