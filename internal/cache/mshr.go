package cache

import "repro/internal/slab"

// MSHR is a miss-status holding register file: it tracks outstanding line
// fills and merges subsequent misses to the same line, so one in-flight
// read request serves every warp waiting on that line.
type MSHR struct {
	// The outstanding entries are the dense prefix lines[:n] of a fixed
	// table: a lookup scans at most max line addresses in one or two cache
	// lines, and a fill moves the last entry into the hole (entry order is
	// never observable). Entry i's waiter tokens, in arrival order, are
	// waiters[i*maxWait:][:nWait[i]].
	lines   []uint64
	nWait   []int32
	waiters []int32
	// filled receives the waiters Fill returns.
	filled  []int32
	n       int
	maxWait int

	// Stats.
	Merges    uint64
	Allocs    uint64
	FullStall uint64
}

// NewMSHR returns an MSHR file with at most maxEntries outstanding lines
// and maxWaiters merged waiters per line.
func NewMSHR(maxEntries, maxWaiters int) *MSHR {
	m := new(MSHR)
	m.Init(maxEntries, maxWaiters)
	return m
}

// Init makes m an empty file of NewMSHR's shape in place, reusing the
// tables it already holds when large enough.
func (m *MSHR) Init(maxEntries, maxWaiters int) {
	if maxEntries <= 0 || maxWaiters <= 0 {
		panic("cache: MSHR sizes must be positive")
	}
	// nWait is the front of the one int32 slab, so its capacity is the
	// slab's.
	lines, ints := m.lines, m.nWait[:cap(m.nWait)]
	slab.Fit(&lines, maxEntries)
	slab.Fit(&ints, maxEntries+(maxEntries+1)*maxWaiters)
	*m = MSHR{
		lines:   lines,
		nWait:   ints[:maxEntries],
		waiters: ints[maxEntries : maxEntries+maxEntries*maxWaiters],
		filled:  ints[maxEntries+maxEntries*maxWaiters:],
		maxWait: maxWaiters,
	}
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

// wait appends waiter to entry i.
func (m *MSHR) wait(i, waiter int) {
	m.waiters[i*m.maxWait+int(m.nWait[i])] = int32(waiter)
	m.nWait[i]++
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

// Lookup attaches waiter (a non-negative token below 2^31) to lineAddr's
// entry, allocating one if needed.
func (m *MSHR) Lookup(lineAddr uint64, waiter int) Outcome {
	if i := m.find(lineAddr); i >= 0 {
		if int(m.nWait[i]) >= m.maxWait {
			m.FullStall++
			return Stalled
		}
		m.wait(i, waiter)
		m.Merges++
		return Merged
	}
	if m.Full() {
		m.FullStall++
		return Stalled
	}
	m.lines[m.n] = lineAddr
	m.nWait[m.n] = 0
	m.wait(m.n, waiter)
	m.n++
	m.Allocs++
	return Allocated
}

// Pending reports whether lineAddr has an outstanding fill.
func (m *MSHR) Pending(lineAddr uint64) bool { return m.find(lineAddr) >= 0 }

// Fill completes lineAddr's outstanding fill and returns its waiters in
// arrival order, or nil when none is outstanding. The returned slice is
// reused by the next Fill.
func (m *MSHR) Fill(lineAddr uint64) []int32 {
	i := m.find(lineAddr)
	if i < 0 {
		return nil
	}
	ws := m.filled[:copy(m.filled, m.waiters[i*m.maxWait:][:m.nWait[i]])]
	m.n--
	if last := m.n; i != last {
		m.lines[i], m.nWait[i] = m.lines[last], m.nWait[last]
		copy(m.waiters[i*m.maxWait:], m.waiters[last*m.maxWait:][:m.nWait[last]])
	}
	return ws
}

// Full reports whether no further line can be allocated.
func (m *MSHR) Full() bool { return m.n >= len(m.lines) }
