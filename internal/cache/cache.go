// Package cache implements the set-associative caches of the simulated
// GPGPU memory hierarchy: the per-core L1 data caches and the per-MC L2
// banks (Table I: 16KB L1, 128KB L2, 128B lines), plus the MSHR file that
// merges outstanding misses.
package cache

import (
	"fmt"

	"repro/internal/slab"
)

// Config describes one cache.
type Config struct {
	SizeBytes int
	LineBytes int
	Ways      int
}

// Validate checks the geometry.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	lw := c.LineBytes * c.Ways
	if lw <= 0 || lw/c.Ways != c.LineBytes {
		// The product overflowed int; without this check the modulo below
		// could divide by zero or accept nonsense geometry.
		return fmt.Errorf("cache: geometry overflow %+v", c)
	}
	if c.Ways > MaxWays {
		return fmt.Errorf("cache: %d ways exceed the %d the LRU rank field orders", c.Ways, MaxWays)
	}
	if c.SizeBytes%(c.LineBytes*c.Ways) != 0 {
		return fmt.Errorf("cache: size %dB not divisible by %d ways x %dB lines",
			c.SizeBytes, c.Ways, c.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	sets := lines / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d is not a power of two", sets)
	}
	return nil
}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.SizeBytes / c.LineBytes / c.Ways }

// A way's state byte (Cache.meta): valid and dirty bits, then its LRU rank
// among the set's valid ways, 0 for the most recently used.
const (
	metaValid uint8 = 1 << iota
	metaDirty
	rankShift = iota
)

// MaxWays is the largest associativity the LRU rank field can order.
const MaxWays = 1 << (8 - rankShift)

// Cache is a set-associative cache with true-LRU replacement. Addresses are
// byte addresses; the cache works on line granularity internally. Set s
// occupies ways s*Ways .. s*Ways+Ways-1 of two flat, pointer-free tables:
// tags, and meta's state bytes. The valid ways of a set always hold the
// ranks 0..k-1 in recency order, so the LRU victim of a full set is the way
// ranked Ways-1.
type Cache struct {
	cfg     Config
	tags    []uint64
	meta    []uint8
	mask    uint64
	shift   uint // log2(LineBytes)
	setBits uint // bits of the line address that select the set

	// Stats.
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Writeback uint64
}

// New builds a cache; it panics on invalid geometry (a construction bug,
// not a runtime condition).
func New(cfg Config) *Cache {
	c := new(Cache)
	c.Init(cfg)
	return c
}

// Init builds c, empty, for cfg in place: the tag and state tables it
// already holds are cleared and re-sliced when large enough. It panics on
// invalid geometry, as New does.
func (c *Cache) Init(cfg Config) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	*c = Cache{cfg: cfg, tags: c.tags, meta: c.meta, mask: uint64(sets - 1)}
	slab.Fit(&c.tags, sets*cfg.Ways)
	slab.Fit(&c.meta, sets*cfg.Ways)
	for s := 1; s < cfg.LineBytes; s <<= 1 {
		c.shift++
	}
	for m := c.mask; m != 0; m >>= 1 {
		c.setBits++
	}
}

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	line := addr >> c.shift
	return int(line & c.mask), line >> c.setBits
}

// ways returns set's tags and state bytes.
func (c *Cache) ways(set int) ([]uint64, []uint8) {
	lo, hi := set*c.cfg.Ways, (set+1)*c.cfg.Ways
	return c.tags[lo:hi:hi], c.meta[lo:hi:hi]
}

// find returns the way of a set holding tag, or -1.
func find(tags []uint64, meta []uint8, tag uint64) int {
	for i, t := range tags {
		if t == tag && meta[i]&metaValid != 0 {
			return i
		}
	}
	return -1
}

// touch makes way w of a set its most recently used: every valid way ranked
// above w moves down one rank (all of them when w is invalid), and w takes
// rank 0 with its valid and dirty bits kept.
func touch(meta []uint8, w int) {
	r := uint8(MaxWays)
	if meta[w]&metaValid != 0 {
		r = meta[w] >> rankShift
	}
	for i, m := range meta {
		if m&metaValid != 0 && m>>rankShift < r {
			meta[i] = m + 1<<rankShift
		}
	}
	meta[w] &= metaValid | metaDirty
}

// Result reports the outcome of an Access.
type Result struct {
	Hit bool
	// Evicted is set when a valid line was displaced; WritebackAddr is its
	// line address and Writeback is true when it was dirty.
	Evicted       bool
	Writeback     bool
	WritebackAddr uint64
}

// Probe reports whether addr currently hits, without disturbing state.
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.index(addr)
	tags, meta := c.ways(set)
	return find(tags, meta, tag) >= 0
}

// Access performs a load (write=false) or store (write=true) with
// allocate-on-miss and LRU replacement; stores mark the line dirty.
func (c *Cache) Access(addr uint64, write bool) Result {
	if c.hit(addr, write) {
		return Result{Hit: true}
	}
	set, tag := c.index(addr)
	tags, meta := c.ways(set)
	// Choose victim: the first invalid way, else the LRU.
	victim := -1
	for i, m := range meta {
		if m&metaValid == 0 {
			victim = i
			break
		}
	}
	res := Result{}
	if victim < 0 {
		lru := uint8(len(meta) - 1)
		for i, m := range meta {
			if m>>rankShift == lru {
				victim = i
				break
			}
		}
		c.Evictions++
		res.Evicted = true
		if meta[victim]&metaDirty != 0 {
			c.Writeback++
			res.Writeback = true
			res.WritebackAddr = c.rebuild(set, tags[victim])
		}
	}
	touch(meta, victim)
	tags[victim] = tag
	meta[victim] = metaValid
	if write {
		meta[victim] |= metaDirty
	}
	return res
}

// AccessNoAllocate performs a load/store that does not allocate on miss
// (the L1 treats stores as write-through no-allocate, the common GPU
// policy, so stores always produce write-request traffic).
func (c *Cache) AccessNoAllocate(addr uint64, write bool) Result {
	return Result{Hit: c.hit(addr, write)}
}

// hit counts an access and, when addr's line is resident, makes it the
// most recently used (dirty on a write) and counts the hit; a miss is
// counted and changes nothing.
func (c *Cache) hit(addr uint64, write bool) bool {
	c.Accesses++
	set, tag := c.index(addr)
	tags, meta := c.ways(set)
	w := find(tags, meta, tag)
	if w < 0 {
		c.Misses++
		return false
	}
	c.Hits++
	touch(meta, w)
	if write {
		meta[w] |= metaDirty
	}
	return true
}

// Invalidate drops addr's line if present, returning whether it was dirty.
// The valid ways ranked below it move up one rank.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	set, tag := c.index(addr)
	tags, meta := c.ways(set)
	w := find(tags, meta, tag)
	if w < 0 {
		return false, false
	}
	r := meta[w] >> rankShift
	dirty = meta[w]&metaDirty != 0
	meta[w] = 0
	for i, m := range meta {
		if m&metaValid != 0 && m>>rankShift > r {
			meta[i] = m - 1<<rankShift
		}
	}
	return true, dirty
}

// rebuild reconstructs a line address from set and tag.
func (c *Cache) rebuild(set int, tag uint64) uint64 {
	line := tag<<c.setBits | uint64(set)
	return line << c.shift
}
