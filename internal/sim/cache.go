package sim

import "math/bits"

// MESI line states. The directory tracks which L1s hold each line and
// whether one of them owns it in Modified state.
type mesiState uint8

const (
	stateInvalid mesiState = iota
	stateShared
	stateExclusive
	stateModified
)

func (s mesiState) String() string {
	switch s {
	case stateInvalid:
		return "I"
	case stateShared:
		return "S"
	case stateExclusive:
		return "E"
	case stateModified:
		return "M"
	default:
		return "?"
	}
}

// cacheLine is one way of one set, two pointer-free words: ts packs the
// tag above the two MESI state bits (tag<<stateBits | state), so a whole
// tag store is a noscan allocation and Reset clears 16 bytes per line.
type cacheLine struct {
	ts      uint64 // tag<<stateBits | mesiState
	lastUse uint64 // LRU timestamp
}

const (
	stateBits = 2
	stateMask = 1<<stateBits - 1
)

func (l *cacheLine) state() mesiState { return mesiState(l.ts & stateMask) }
func (l *cacheLine) tag() uint64      { return l.ts >> stateBits }

func (l *cacheLine) setState(st mesiState) { l.ts = l.ts&^stateMask | uint64(st) }

// holds reports whether the line is valid with tag key>>stateBits. With
// key = tag<<stateBits, ts^key is the line's state when the tags match
// and at least 1<<stateBits when they differ. Subtracting one maps a valid
// match (state 1..3) to 0..2 and everything else — a tag mismatch, or an
// Invalid match wrapping to 2^64-1 — to 3 or more, so one unsigned
// compare checks both the tag and the valid bit.
func (l *cacheLine) holds(key uint64) bool {
	return (l.ts^key)-1 < stateMask
}

// cache is a set-associative cache with true-LRU replacement. Addresses are
// line addresses (byte address >> lineShift); the cache is a tag store
// only — the simulator carries no data. Line addresses stay below 1<<62
// (byte addresses are capped at MaxOpArg), so tag<<stateBits never loses
// bits. All sets live in one preallocated set-major slice and the lookup
// paths index it directly (no per-access sub-slicing), so a steady-state
// access allocates nothing.
type cache struct {
	sets    int
	ways    int
	setMask uint64
	lines   []cacheLine // sets*ways, set-major
	dirty   []uint64    // one bit per set that insert has written since reset
	tick    uint64      // LRU clock
}

// init sizes the tag store of a zero-value cache. Pooled machines never
// come back through here — Machine.Reset reuses the line slice via
// cache.reset, which is the only recycling path.
func (c *cache) init(sizeBytes, ways, lineSz int) {
	linesTotal := sizeBytes / lineSz
	c.sets = linesTotal / ways
	c.ways = ways
	c.setMask = uint64(c.sets - 1)
	c.lines = make([]cacheLine, linesTotal)
	c.dirty = make([]uint64, (c.sets+63)/64)
	c.tick = 0
}

// reset invalidates every line without releasing storage. Only insert
// makes a line valid, and every other write (an LRU stamp on a hit, a
// state change) lands on a valid line, so a set insert never marked is
// still all zero: clearing just the marked sets costs O(sets written),
// not a pass over the whole tag store.
func (c *cache) reset() {
	for w, bitsLeft := range c.dirty {
		for bitsLeft != 0 {
			set := w*64 + bits.TrailingZeros64(bitsLeft)
			clear(c.lines[set*c.ways : (set+1)*c.ways])
			bitsLeft &= bitsLeft - 1
		}
	}
	clear(c.dirty)
	c.tick = 0
}

func newCache(sizeBytes, ways, lineSz int) *cache {
	c := new(cache)
	c.init(sizeBytes, ways, lineSz)
	return c
}

// base returns the index of lineAddr's set in the flat line slice.
func (c *cache) base(lineAddr uint64) int {
	return int(lineAddr&c.setMask) * c.ways
}

// lookup returns the line holding lineAddr, or nil on miss. A hit updates
// the LRU clock. It runs on every access, so keep it within the
// compiler's inlining budget (go build -gcflags=-m).
func (c *cache) lookup(lineAddr uint64) *cacheLine {
	c.tick++
	base := c.base(lineAddr)
	key := lineAddr / uint64(c.sets) << stateBits
	for i := base; i < base+c.ways; i++ {
		if l := &c.lines[i]; l.holds(key) {
			l.lastUse = c.tick
			return l
		}
	}
	return nil
}

// insert places lineAddr in the cache with the given state, evicting the
// LRU way if needed. It returns the evicted line address and its state
// (stateInvalid when no valid line was evicted).
func (c *cache) insert(lineAddr uint64, st mesiState) (evictedAddr uint64, evictedState mesiState) {
	c.tick++
	set := lineAddr & c.setMask
	c.dirty[set>>6] |= 1 << (set & 63)
	base := c.base(lineAddr)
	victim := base
	for i := base; i < base+c.ways; i++ {
		if c.lines[i].state() == stateInvalid {
			victim = i
			break
		}
		if c.lines[i].lastUse < c.lines[victim].lastUse {
			victim = i
		}
	}
	ev := c.lines[victim]
	c.lines[victim] = cacheLine{ts: lineAddr/uint64(c.sets)<<stateBits | uint64(st), lastUse: c.tick}
	if ev.state() == stateInvalid {
		return 0, stateInvalid
	}
	evictedLineAddr := ev.tag()*uint64(c.sets) + (lineAddr & c.setMask)
	return evictedLineAddr, ev.state()
}

// invalidate drops lineAddr if present, returning its previous state.
func (c *cache) invalidate(lineAddr uint64) mesiState {
	base := c.base(lineAddr)
	key := lineAddr / uint64(c.sets) << stateBits
	for i := base; i < base+c.ways; i++ {
		if l := &c.lines[i]; l.holds(key) {
			st := l.state()
			l.setState(stateInvalid)
			return st
		}
	}
	return stateInvalid
}

// downgrade moves lineAddr to Shared if present in E/M, returning its
// previous state.
func (c *cache) downgrade(lineAddr uint64) mesiState {
	base := c.base(lineAddr)
	key := lineAddr / uint64(c.sets) << stateBits
	for i := base; i < base+c.ways; i++ {
		if l := &c.lines[i]; l.holds(key) {
			st := l.state()
			if st == stateExclusive || st == stateModified {
				l.setState(stateShared)
			}
			return st
		}
	}
	return stateInvalid
}

// countValid returns the number of valid lines (test hook).
func (c *cache) countValid() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].state() != stateInvalid {
			n++
		}
	}
	return n
}

// maxSimCores bounds Config.Cores: the full-map directory tracks sharers
// in a fixed-width sharerSet of maxSimCores bits.
const maxSimCores = 256

// sharerSet is a fixed-width bitmask over core ids — the full-map sharer
// vector of one directory entry. A flat array (not a slice) keeps dirEntry
// a pure value type, so directory slots still store entries inline and a
// steady-state directory get allocates nothing.
type sharerSet [maxSimCores / 64]uint64

func (s *sharerSet) add(core int)      { s[core>>6] |= 1 << uint(core&63) }
func (s *sharerSet) drop(core int)     { s[core>>6] &^= 1 << uint(core&63) }
func (s *sharerSet) has(core int) bool { return s[core>>6]&(1<<uint(core&63)) != 0 }

// only resets the set to the single given core.
func (s *sharerSet) only(core int) {
	*s = sharerSet{}
	s.add(core)
}

func (s *sharerSet) count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// dirEntry is the full-map directory record for one line. L2 residency is
// tracked by the L2 cache structure itself, not the directory.
type dirEntry struct {
	sharers sharerSet // bitmask of L1s holding the line
	inv     uint32    // invalidations this line has suffered (hot-line stat)
	owner   int16     // core owning in M/E, -1 when none
}

// dirSlot is one open-addressing slot: the line address plus its entry,
// stored by value so a directory miss allocates nothing.
type dirSlot struct {
	key  uint64
	ent  dirEntry
	live bool
}

// dirInitialSlots sizes a fresh directory table. Must be a power of two;
// typical runs touch a few thousand lines, so starting at 1k slots keeps
// early growth cheap without wasting memory on tiny test machines.
const dirInitialSlots = 1 << 10

// directory tracks L1 residency for every line touched so far. It is a
// value-type open-addressing (linear probing) hash table: entries are
// stored inline in the slot array rather than as per-line heap pointers,
// so the per-access directory lookup is allocation-free in steady state
// and growth cost amortizes over distinct lines.
//
// Pointer-stability contract: the *dirEntry returned by get stays valid
// until a LATER get call inserts a previously unseen line (which may grow
// and rehash the table). Machine.access relies on this: it fetches the
// accessed line's entry first (the only call that may insert), and every
// subsequent directory lookup during that access is for an address already
// resident in some cache — and any cached address was inserted into the
// directory when it was first accessed, so those lookups never insert.
type directory struct {
	slots []dirSlot
	n     int // live entries
}

func newDirectory() *directory {
	d := new(directory)
	d.init()
	return d
}

func (d *directory) init() {
	if d.slots == nil {
		d.slots = make([]dirSlot, dirInitialSlots)
	}
	d.reset()
}

// reset drops every entry, keeping the grown slot array for reuse.
func (d *directory) reset() {
	clear(d.slots)
	d.n = 0
}

// dirHash scrambles a line address into a table index seed (Fibonacci
// hashing: line addresses are sequential per region, so the multiply
// spreads neighboring lines across the table).
func dirHash(key uint64) uint64 {
	return key * 0x9e3779b97f4a7c15
}

// get returns the entry for lineAddr, inserting a fresh one on first
// touch. See the pointer-stability contract on directory.
func (d *directory) get(lineAddr uint64) *dirEntry {
	mask := uint64(len(d.slots) - 1)
	for i := dirHash(lineAddr) & mask; ; i = (i + 1) & mask {
		s := &d.slots[i]
		if s.live {
			if s.key == lineAddr {
				return &s.ent
			}
			continue
		}
		// First touch. Grow before inserting when the table passes 3/4
		// load — growth happens ONLY on insertion, which is what keeps
		// previously returned entry pointers stable across lookups of
		// existing lines.
		if 4*(d.n+1) > 3*len(d.slots) {
			d.grow()
			return d.get(lineAddr)
		}
		s.live = true
		s.key = lineAddr
		s.ent = dirEntry{owner: -1}
		d.n++
		return &s.ent
	}
}

// grow doubles the table and reinserts every live slot.
func (d *directory) grow() {
	old := d.slots
	d.slots = make([]dirSlot, 2*len(old))
	mask := uint64(len(d.slots) - 1)
	for i := range old {
		if !old[i].live {
			continue
		}
		for j := dirHash(old[i].key) & mask; ; j = (j + 1) & mask {
			if !d.slots[j].live {
				d.slots[j] = old[i]
				break
			}
		}
	}
}

// len returns the number of tracked lines (test hook).
func (d *directory) len() int { return d.n }

// maxInv returns the invalidation count of the most-invalidated line — the
// hot-line statistic surfaced as Counters.HotLineInvalidations. Taking the
// max (not an address) keeps the result independent of slot/hash order.
func (d *directory) maxInv() uint64 {
	var peak uint32
	for i := range d.slots {
		if d.slots[i].live && d.slots[i].ent.inv > peak {
			peak = d.slots[i].ent.inv
		}
	}
	return uint64(peak)
}

func (e *dirEntry) addSharer(core int)      { e.sharers.add(core) }
func (e *dirEntry) dropSharer(core int)     { e.sharers.drop(core) }
func (e *dirEntry) hasSharer(core int) bool { return e.sharers.has(core) }
func (e *dirEntry) sharerCount() int        { return e.sharers.count() }
