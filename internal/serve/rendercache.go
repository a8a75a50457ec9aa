package serve

import (
	"container/list"
	"sync"
)

// renderCacheEntries bounds the rendered-response LRU. The key space is
// tiny — (registry size + 1 for "all") × four formats — so a small cap
// covers every reachable key while bounding memory if the registry grows.
const renderCacheEntries = 64

// renderKey addresses one fully rendered /run response body.
type renderKey struct {
	target string // experiment id or "all"
	format string
}

// renderCall is one in-flight render, singleflighted per key: the first
// request to miss becomes the leader and renders; followers block on done
// and then serve the leader's body. body and ok are written exactly once,
// before done is closed, so the close is the happens-before edge followers
// read through.
type renderCall struct {
	done chan struct{}
	body []byte
	ok   bool
}

// renderCache is a per-process LRU of fully rendered /run response bodies.
// A hit skips the engine walk AND re-rendering — the warm path becomes a
// single buffer write (lookup happens after target resolution, so 404s
// never count as misses). Entries live for the process
// lifetime (the engine's own caches make results deterministic per
// process; wall-clock -duration runs bypass this cache entirely), and the
// LRU only exists to bound memory. Safe for concurrent use.
//
// Cold misses are additionally singleflighted per key (join/finish): N
// concurrent identical cold requests perform one render instead of N —
// the engine already collapsed the *computation*, but before this each
// client still replayed the renderer over the shared documents (the
// render stampede). Followers that are served by a leader's render are
// counted in coalesced.
type renderCache struct {
	mu        sync.Mutex
	max       int
	order     *list.List // front = most recently used; values are *renderEntry
	byKey     map[renderKey]*list.Element
	inflight  map[renderKey]*renderCall
	hits      uint64
	misses    uint64
	coalesced uint64
	bytes     int64
}

type renderEntry struct {
	key  renderKey
	body []byte
}

func newRenderCache(max int) *renderCache {
	return &renderCache{
		max:      max,
		order:    list.New(),
		byKey:    make(map[renderKey]*list.Element),
		inflight: make(map[renderKey]*renderCall),
	}
}

// getLocked returns the cached body for key, bumping its recency. The
// returned slice must be treated as read-only (it is shared across
// requests).
func (c *renderCache) getLocked(key renderKey) ([]byte, bool) {
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*renderEntry).body, true
}

// join is the singleflight entry point. It returns, in order of
// preference: a cached body (hit); the in-flight leader's call to wait on
// (leader == false — the caller must select on call.done and its request
// context, and must re-join if the leader finishes with ok == false); or
// a fresh call the caller now leads (leader == true — the caller MUST
// call finish exactly once, on every path including panics).
func (c *renderCache) join(key renderKey) (body []byte, call *renderCall, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if body, ok := c.getLocked(key); ok {
		return body, nil, false
	}
	c.misses++
	if call, ok := c.inflight[key]; ok {
		c.coalesced++
		return nil, call, false
	}
	call = &renderCall{done: make(chan struct{})}
	c.inflight[key] = call
	return nil, call, true
}

// finish resolves a call obtained from join with leader == true: the body
// enters the cache when ok (a clean, fully rendered run) and every
// follower waiting on the call wakes either way. A failed render (client
// disconnect, experiment error) publishes ok == false, and the next
// joiner becomes the new leader — a dead leader can never wedge its
// followers.
func (c *renderCache) finish(key renderKey, call *renderCall, body []byte, ok bool) {
	c.mu.Lock()
	if c.inflight[key] == call {
		delete(c.inflight, key)
	}
	if ok {
		c.putLocked(key, body)
	}
	c.mu.Unlock()
	call.body, call.ok = body, ok
	close(call.done)
}

// putLocked stores a rendered body, evicting the least recently used
// entry past the cap. The key is never already cached: join leads a
// render only on a miss, and only the leader's finish stores the key.
// The caller must not mutate body afterwards.
func (c *renderCache) putLocked(key renderKey, body []byte) {
	c.byKey[key] = c.order.PushFront(&renderEntry{key: key, body: body})
	c.bytes += int64(len(body))
	for c.order.Len() > c.max {
		last := c.order.Back()
		ent := last.Value.(*renderEntry)
		c.order.Remove(last)
		delete(c.byKey, ent.key)
		c.bytes -= int64(len(ent.body))
	}
}

// stats snapshots the counters for /stats and /metrics.
func (c *renderCache) stats() (hits, misses, coalesced uint64, entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.coalesced, c.order.Len(), c.bytes
}
