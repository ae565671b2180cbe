package cache

// MSHR is a miss-status holding register file: it tracks outstanding line
// fills and merges subsequent misses to the same line, so one in-flight
// read request serves every warp waiting on that line.
type MSHR struct {
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
func NewMSHR(maxEntries, maxWaiters int) *MSHR {
	if maxEntries <= 0 || maxWaiters <= 0 {
		panic("cache: MSHR sizes must be positive")
	}
	m := &MSHR{
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
func (m *MSHR) find(lineAddr uint64) int {
	for i, l := range m.lines[:m.n] {
		if l == lineAddr {
			return i
		}
	}
	return -1
}

// Outcome of an MSHR lookup/allocate.
type Outcome uint8

const (
	// Allocated: a new entry was created; the caller must issue the fill.
	Allocated Outcome = iota
	// Merged: an entry existed; the waiter was attached, no new fill.
	Merged
	// Stalled: no entry or waiter slot available; retry later.
	Stalled
)

// Lookup attaches waiter to lineAddr's entry, allocating one if needed.
func (m *MSHR) Lookup(lineAddr uint64, waiter int) Outcome {
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
func (m *MSHR) Pending(lineAddr uint64) bool { return m.find(lineAddr) >= 0 }

// Fill completes lineAddr's outstanding fill and returns its waiters. The
// returned slice stays valid until the caller hands it back via Recycle (or
// forever, if the caller never does).
func (m *MSHR) Fill(lineAddr uint64) []int {
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
func (m *MSHR) Recycle(ws []int) {
	if ws == nil {
		return
	}
	m.free = append(m.free, ws[:0])
}

// Full reports whether no further line can be allocated.
func (m *MSHR) Full() bool { return m.n >= len(m.lines) }
