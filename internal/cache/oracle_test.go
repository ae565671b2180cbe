package cache

// The oracles of the differential tests: the cache and MSHR file as they
// were before tags, state and waiters moved into flat tables — one []way
// slice per set with a uint64 LRU stamp per way, and one []int waiter slice
// per MSHR entry recycled through a freelist. They are kept verbatim; only
// the type names changed.

type way struct {
	tag   uint64
	valid bool
	dirty bool
	used  uint64 // LRU stamp
}

// stampCache is the way-slice, LRU-stamp cache.
type stampCache struct {
	cfg   Config
	sets  [][]way
	clock uint64
	mask  uint64
	shift uint

	// Stats.
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Writeback uint64
}

// newStampCache builds the oracle with New's geometry.
func newStampCache(cfg Config) *stampCache {
	sets := cfg.Sets()
	c := &stampCache{cfg: cfg, mask: uint64(sets - 1)}
	for s := 1; s < cfg.LineBytes; s <<= 1 {
		c.shift++
	}
	c.sets = make([][]way, sets)
	backing := make([]way, sets*cfg.Ways)
	for i := range c.sets {
		c.sets[i], backing = backing[:cfg.Ways], backing[cfg.Ways:]
	}
	return c
}

func (c *stampCache) index(addr uint64) (set int, tag uint64) {
	line := addr >> c.shift
	return int(line & c.mask), line >> uint(popShift(c.mask))
}

// Probe reports whether addr currently hits, without disturbing state.
func (c *stampCache) Probe(addr uint64) bool {
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		if c.sets[set][i].valid && c.sets[set][i].tag == tag {
			return true
		}
	}
	return false
}

// Access performs a load (write=false) or store (write=true) with
// allocate-on-miss and LRU replacement; stores mark the line dirty.
func (c *stampCache) Access(addr uint64, write bool) Result {
	c.clock++
	c.Accesses++
	set, tag := c.index(addr)
	ways := c.sets[set]
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			c.Hits++
			ways[i].used = c.clock
			if write {
				ways[i].dirty = true
			}
			return Result{Hit: true}
		}
	}
	c.Misses++
	// Choose victim: an invalid way, else true LRU.
	victim := 0
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].used < ways[victim].used {
			victim = i
		}
	}
	res := Result{}
	if ways[victim].valid {
		c.Evictions++
		res.Evicted = true
		if ways[victim].dirty {
			c.Writeback++
			res.Writeback = true
			res.WritebackAddr = c.rebuild(set, ways[victim].tag)
		}
	}
	ways[victim] = way{tag: tag, valid: true, dirty: write, used: c.clock}
	return res
}

// AccessNoAllocate performs a load/store that does not allocate on miss
// (the L1 treats stores as write-through no-allocate, the common GPU
// policy, so stores always produce write-request traffic).
func (c *stampCache) AccessNoAllocate(addr uint64, write bool) Result {
	c.clock++
	c.Accesses++
	set, tag := c.index(addr)
	ways := c.sets[set]
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			c.Hits++
			ways[i].used = c.clock
			if write {
				ways[i].dirty = true
			}
			return Result{Hit: true}
		}
	}
	c.Misses++
	return Result{}
}

// Invalidate drops addr's line if present, returning whether it was dirty.
func (c *stampCache) Invalidate(addr uint64) (present, dirty bool) {
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		w := &c.sets[set][i]
		if w.valid && w.tag == tag {
			present, dirty = true, w.dirty
			w.valid = false
			return
		}
	}
	return
}

// rebuild reconstructs a line address from set and tag.
func (c *stampCache) rebuild(set int, tag uint64) uint64 {
	line := tag<<uint(popShift(c.mask)) | uint64(set)
	return line << c.shift
}

// sliceMSHR is the slice-of-slices MSHR file.
type sliceMSHR struct {
	// The outstanding entries are the dense prefix lines[:n] / waiters[:n]
	// of a fixed table: a lookup scans at most max line addresses in one or
	// two cache lines, and a fill swaps the last entry into the hole (entry
	// order is never observable).
	lines   []uint64 // line addr
	waiters [][]int  // waiter tokens, in arrival order
	n       int
	maxWait int
	// free recycles waiter slices between entries (Lookup pops, Recycle
	// pushes), keeping the steady-state miss path allocation-free. It starts
	// with one slice per entry, carved from a single backing array.
	free [][]int

	// Stats.
	Merges    uint64
	Allocs    uint64
	FullStall uint64
}

// NewMSHR returns an MSHR file with at most maxEntries outstanding lines
// and maxWaiters merged waiters per line.
func newSliceMSHR(maxEntries, maxWaiters int) *sliceMSHR {
	if maxEntries <= 0 || maxWaiters <= 0 {
		panic("cache: MSHR sizes must be positive")
	}
	m := &sliceMSHR{
		lines:   make([]uint64, maxEntries),
		waiters: make([][]int, maxEntries),
		maxWait: maxWaiters,
		free:    make([][]int, maxEntries),
	}
	backing := make([]int, maxEntries*maxWaiters)
	for i := range m.free {
		m.free[i] = backing[i*maxWaiters : i*maxWaiters : (i+1)*maxWaiters]
	}
	return m
}

// find returns the table index of lineAddr's entry, or -1.
func (m *sliceMSHR) find(lineAddr uint64) int {
	for i, l := range m.lines[:m.n] {
		if l == lineAddr {
			return i
		}
	}
	return -1
}

// Lookup attaches waiter to lineAddr's entry, allocating one if needed.
func (m *sliceMSHR) Lookup(lineAddr uint64, waiter int) Outcome {
	if i := m.find(lineAddr); i >= 0 {
		if len(m.waiters[i]) >= m.maxWait {
			m.FullStall++
			return Stalled
		}
		m.waiters[i] = append(m.waiters[i], waiter)
		m.Merges++
		return Merged
	}
	if m.Full() {
		m.FullStall++
		return Stalled
	}
	var ws []int
	if n := len(m.free); n > 0 {
		ws = m.free[n-1]
		m.free = m.free[:n-1]
	} else {
		ws = make([]int, 0, m.maxWait)
	}
	m.lines[m.n] = lineAddr
	m.waiters[m.n] = append(ws, waiter)
	m.n++
	m.Allocs++
	return Allocated
}

// Pending reports whether lineAddr has an outstanding fill.
func (m *sliceMSHR) Pending(lineAddr uint64) bool { return m.find(lineAddr) >= 0 }

// Fill completes lineAddr's outstanding fill and returns its waiters. The
// returned slice stays valid until the caller hands it back via Recycle (or
// forever, if the caller never does).
func (m *sliceMSHR) Fill(lineAddr uint64) []int {
	i := m.find(lineAddr)
	if i < 0 {
		return nil
	}
	ws := m.waiters[i]
	m.n--
	m.lines[i], m.waiters[i] = m.lines[m.n], m.waiters[m.n]
	m.waiters[m.n] = nil
	return ws
}

// Recycle returns a slice obtained from Fill to the MSHR's freelist once
// the caller is done iterating it. Optional but keeps fills allocation-free.
func (m *sliceMSHR) Recycle(ws []int) {
	if ws == nil {
		return
	}
	m.free = append(m.free, ws[:0])
}

// Full reports whether no further line can be allocated.
func (m *sliceMSHR) Full() bool { return m.n >= len(m.lines) }

func popShift(mask uint64) int {
	n := 0
	for mask != 0 {
		mask >>= 1
		n++
	}
	return n
}
