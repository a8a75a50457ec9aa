package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCacheHitAfterInsert(t *testing.T) {
	c := newCache(1024, 2, 64) // 16 lines, 8 sets
	if c.lookup(5) != nil {
		t.Fatal("empty cache should miss")
	}
	c.insert(5, stateShared)
	l := c.lookup(5)
	if l == nil || l.state() != stateShared {
		t.Fatal("inserted line should hit")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(2*64, 2, 64) // 2 lines, 1 set, 2 ways
	c.insert(0, stateShared)
	c.insert(1, stateModified)
	c.lookup(0) // make 0 most recently used
	evAddr, evState := c.insert(2, stateShared)
	if evAddr != 1 || evState != stateModified {
		t.Fatalf("expected to evict line 1 (M), got %d (%v)", evAddr, evState)
	}
	if c.lookup(0) == nil || c.lookup(2) == nil || c.lookup(1) != nil {
		t.Fatal("post-eviction residency wrong")
	}
}

func TestCacheEvictedAddressReconstruction(t *testing.T) {
	// Lines mapping to the same set must round-trip their address through
	// tag reconstruction on eviction.
	c := newCache(8*64, 1, 64) // 8 sets, direct-mapped
	c.insert(3, stateShared)
	evAddr, evState := c.insert(3+8, stateShared) // same set (3 mod 8)
	if evState == stateInvalid {
		t.Fatal("expected eviction")
	}
	if evAddr != 3 {
		t.Fatalf("evicted address = %d, want 3", evAddr)
	}
}

func TestCacheInvalidateAndDowngrade(t *testing.T) {
	c := newCache(1024, 2, 64)
	c.insert(7, stateModified)
	if st := c.downgrade(7); st != stateModified {
		t.Errorf("downgrade returned %v", st)
	}
	if l := c.lookup(7); l == nil || l.state() != stateShared {
		t.Error("downgrade should leave line Shared")
	}
	if st := c.invalidate(7); st != stateShared {
		t.Errorf("invalidate returned %v", st)
	}
	if c.lookup(7) != nil {
		t.Error("invalidated line should miss")
	}
	if st := c.invalidate(7); st != stateInvalid {
		t.Error("double invalidate should report Invalid")
	}
	if st := c.downgrade(99); st != stateInvalid {
		t.Error("downgrade of absent line should report Invalid")
	}
}

func TestCacheCapacityNeverExceeded(t *testing.T) {
	c := newCache(16*64, 4, 64) // 16 lines
	for a := uint64(0); a < 1000; a++ {
		c.insert(a, stateShared)
		if got := c.countValid(); got > 16 {
			t.Fatalf("cache holds %d lines, capacity 16", got)
		}
	}
	if c.countValid() != 16 {
		t.Fatalf("full cache should hold 16 lines, has %d", c.countValid())
	}
}

func TestCacheSetIsolation(t *testing.T) {
	// Filling one set must not evict lines in other sets.
	c := newCache(8*64, 2, 64) // 4 sets, 2 ways
	c.insert(1, stateShared)   // set 1
	for i := 0; i < 10; i++ {
		c.insert(uint64(4*i), stateShared) // all set 0
	}
	if c.lookup(1) == nil {
		t.Error("set-0 thrashing evicted a set-1 line")
	}
}

func TestCachePropertyMostRecentSurvives(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	pred := func(addrs []uint16) bool {
		c := newCache(32*64, 4, 64)
		for _, a := range addrs {
			c.insert(uint64(a), stateShared)
		}
		if len(addrs) == 0 {
			return true
		}
		// The most recently inserted line is always resident.
		return c.lookup(uint64(addrs[len(addrs)-1])) != nil
	}
	if err := quick.Check(pred, cfg); err != nil {
		t.Error(err)
	}
}

// refLine and refCache are a plain struct-per-line true-LRU cache: the
// unpacked layout the packed cacheLine must behave exactly like.
type refLine struct {
	tag     uint64
	state   mesiState
	lastUse uint64
}

type refCache struct {
	sets, ways int
	lines      []refLine
	tick       uint64
}

func (r *refCache) find(lineAddr uint64) int {
	base := int(lineAddr%uint64(r.sets)) * r.ways
	for i := base; i < base+r.ways; i++ {
		if r.lines[i].state != stateInvalid && r.lines[i].tag == lineAddr/uint64(r.sets) {
			return i
		}
	}
	return -1
}

func (r *refCache) lookup(lineAddr uint64) (mesiState, bool) {
	r.tick++
	i := r.find(lineAddr)
	if i < 0 {
		return stateInvalid, false
	}
	r.lines[i].lastUse = r.tick
	return r.lines[i].state, true
}

func (r *refCache) insert(lineAddr uint64, st mesiState) (uint64, mesiState) {
	r.tick++
	base := int(lineAddr%uint64(r.sets)) * r.ways
	victim := base
	for i := base; i < base+r.ways; i++ {
		if r.lines[i].state == stateInvalid {
			victim = i
			break
		}
		if r.lines[i].lastUse < r.lines[victim].lastUse {
			victim = i
		}
	}
	ev := r.lines[victim]
	r.lines[victim] = refLine{tag: lineAddr / uint64(r.sets), state: st, lastUse: r.tick}
	if ev.state == stateInvalid {
		return 0, stateInvalid
	}
	return ev.tag*uint64(r.sets) + lineAddr%uint64(r.sets), ev.state
}

func (r *refCache) invalidate(lineAddr uint64) mesiState {
	i := r.find(lineAddr)
	if i < 0 {
		return stateInvalid
	}
	st := r.lines[i].state
	r.lines[i].state = stateInvalid
	return st
}

func (r *refCache) downgrade(lineAddr uint64) mesiState {
	i := r.find(lineAddr)
	if i < 0 {
		return stateInvalid
	}
	st := r.lines[i].state
	if st == stateExclusive || st == stateModified {
		r.lines[i].state = stateShared
	}
	return st
}

// TestCacheMatchesReference drives random lookup, insert, invalidate and
// downgrade sequences through the packed cache and the reference, and
// requires identical results and identical per-way states, tags and LRU
// stamps after every step. Lines of every MESI state share sets and tags
// collide across sets, so state bits leaking into the tag compare (or a
// tag leaking into the state) shows up as a diverging hit or victim.
// Resets are interleaved too: after each one the cache must equal a
// freshly initialized one way for way, so a set the dirty-set reset
// skipped while it still held a tag, state or LRU stamp fails here.
func TestCacheMatchesReference(t *testing.T) {
	const sets, ways = 8, 4
	states := []mesiState{stateShared, stateExclusive, stateModified}
	// The largest line address a 64-byte-line machine can issue.
	top := uint64(MaxOpArg) >> 6
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := newCache(sets*ways*64, ways, 64)
		r := &refCache{sets: sets, ways: ways, lines: make([]refLine, sets*ways)}
		addr := func() uint64 {
			a := uint64(rng.Intn(4 * sets * ways))
			if rng.Intn(8) == 0 {
				a = top - a // tags with the high bits set
			}
			return a
		}
		for step := 0; step < 4000; step++ {
			a := addr()
			if rng.Intn(200) == 0 {
				c.reset()
				r = &refCache{sets: sets, ways: ways, lines: make([]refLine, sets*ways)}
				fresh := newCache(sets*ways*64, ways, 64)
				for i := range fresh.lines {
					if c.lines[i] != fresh.lines[i] {
						t.Fatalf("seed %d step %d: after reset way %d = %+v, fresh cache %+v", seed, step, i, c.lines[i], fresh.lines[i])
					}
				}
				if c.tick != fresh.tick {
					t.Fatalf("seed %d step %d: after reset tick = %d, fresh cache %d", seed, step, c.tick, fresh.tick)
				}
				continue
			}
			switch op := rng.Intn(4); op {
			case 0:
				l := c.lookup(a)
				st, ok := r.lookup(a)
				if (l != nil) != ok || (ok && l.state() != st) {
					t.Fatalf("seed %d step %d: lookup(%#x) hit=%v, reference hit=%v state %v", seed, step, a, l != nil, ok, st)
				}
			case 1:
				st := states[rng.Intn(len(states))]
				ea, es := c.insert(a, st)
				ra, rs := r.insert(a, st)
				if ea != ra || es != rs {
					t.Fatalf("seed %d step %d: insert(%#x, %v) evicted (%#x, %v), reference (%#x, %v)", seed, step, a, st, ea, es, ra, rs)
				}
			case 2:
				if got, want := c.invalidate(a), r.invalidate(a); got != want {
					t.Fatalf("seed %d step %d: invalidate(%#x) = %v, reference %v", seed, step, a, got, want)
				}
			case 3:
				if got, want := c.downgrade(a), r.downgrade(a); got != want {
					t.Fatalf("seed %d step %d: downgrade(%#x) = %v, reference %v", seed, step, a, got, want)
				}
			}
			for i := range r.lines {
				l, rl := &c.lines[i], r.lines[i]
				if l.state() != rl.state || l.lastUse != rl.lastUse || (rl.state != stateInvalid && l.tag() != rl.tag) {
					t.Fatalf("seed %d step %d: way %d = (tag %#x, %v, %d), reference (tag %#x, %v, %d)",
						seed, step, i, l.tag(), l.state(), l.lastUse, rl.tag, rl.state, rl.lastUse)
				}
			}
		}
	}
}

func TestDirectorySharers(t *testing.T) {
	d := newDirectory()
	e := d.get(42)
	if e.sharerCount() != 0 || e.owner != -1 {
		t.Fatal("fresh entry should be empty")
	}
	e.addSharer(3)
	e.addSharer(5)
	if !e.hasSharer(3) || !e.hasSharer(5) || e.hasSharer(4) {
		t.Error("sharer bits wrong")
	}
	if e.sharerCount() != 2 {
		t.Errorf("sharerCount = %d", e.sharerCount())
	}
	e.dropSharer(3)
	if e.hasSharer(3) || e.sharerCount() != 1 {
		t.Error("dropSharer failed")
	}
	if d.get(42) != e {
		t.Error("directory should return the same entry")
	}
}

func TestMESIStateString(t *testing.T) {
	names := map[mesiState]string{stateInvalid: "I", stateShared: "S", stateExclusive: "E", stateModified: "M"}
	for st, want := range names {
		if st.String() != want {
			t.Errorf("%v.String() = %q", int(st), st.String())
		}
	}
}
