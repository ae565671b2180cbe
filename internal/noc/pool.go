package noc

// pktPool is a per-fabric freelist of Packet structs. Reply traffic churns
// through hundreds of packets per thousand cycles; recycling them through a
// freelist removes the dominant steady-state allocation of the simulator
// hot loop (the request/reply Packet per memory transaction) without any
// cross-fabric sharing, so the pool needs no locking — each fabric belongs
// to exactly one single-threaded simulation.
type pktPool struct {
	free []*Packet
}

// get returns a zeroed packet, recycling a released one when available.
func (p *pktPool) get() *Packet {
	if n := len(p.free); n > 0 {
		pk := p.free[n-1]
		p.free = p.free[:n-1]
		*pk = Packet{}
		return pk
	}
	return new(Packet)
}

// put releases a packet back to the freelist. The caller must guarantee no
// live reference remains (delivery callback returned, or injection was
// rejected before the fabric kept any flit of it).
func (p *pktPool) put(pk *Packet) {
	if pk == nil {
		return
	}
	pk.Payload = nil
	p.free = append(p.free, pk)
}

// pktTable is a fabric's in-flight packet table: buffers and flits name a
// packet by a handle into pkts instead of holding a *Packet, which keeps the
// handle slab pointer-free. A slot is taken when an NI accepts (or
// re-injects) a packet and released when its tail flit leaves the fabric's
// buffers — consumed at the destination, dropped as corrupt, or (DA2mesh)
// streamed off its lane. Handles are never ordered or compared beyond
// equality, so which slot a packet gets cannot influence a simulated
// decision.
type pktTable struct {
	pkts []*Packet // by handle; nil marks a free slot
	// bad marks, by handle, a packet one of whose flits crossed a link
	// inside a corruption window (router.traverse): the payload damage only
	// the receiving NI's CRC check sees, when the tail drains (recovery.go).
	// The release clears it.
	bad  []bool
	free []uint32 // released handles, reused last in, first out
}

// reset returns t emptied, over the same storage: the next handle added is
// 0, as in a new table.
func (t pktTable) reset() pktTable {
	clear(t.pkts)
	return pktTable{pkts: t.pkts[:0], bad: t.bad[:0], free: t.free[:0]}
}

// add stores p in a free slot and returns its handle.
func (t *pktTable) add(p *Packet) uint32 {
	if n := len(t.free); n > 0 {
		h := t.free[n-1]
		t.free = t.free[:n-1]
		t.pkts[h] = p
		return h
	}
	t.pkts = append(t.pkts, p)
	t.bad = append(t.bad, false)
	return uint32(len(t.pkts) - 1)
}

// release frees handle h, whose packet is no longer in the fabric, and
// returns its corruption mark.
func (t *pktTable) release(h uint32) (bad bool) {
	bad = t.bad[h]
	t.pkts[h], t.bad[h] = nil, false
	t.free = append(t.free, h)
	return bad
}

// of returns the packet with handle h.
func (t *pktTable) of(h uint32) *Packet { return t.pkts[h] }

// live returns the number of packets the table holds.
func (t *pktTable) live() int { return len(t.pkts) - len(t.free) }

// appendLive appends every packet the table holds to dst, in handle order.
func (t *pktTable) appendLive(dst []*Packet) []*Packet {
	for _, p := range t.pkts {
		if p != nil {
			dst = append(dst, p)
		}
	}
	return dst
}

// oldest returns the minimum of oldest and the CreatedAt of every packet the
// table holds.
func (t *pktTable) oldest(oldest int64) int64 {
	if t.live() > 0 {
		for _, p := range t.pkts {
			if p != nil {
				oldest = min(oldest, p.CreatedAt)
			}
		}
	}
	return oldest
}
