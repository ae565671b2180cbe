package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
)

// This file provides trace recording and replay, so the simulator can be
// driven by externally captured memory traces (the adoption path for users
// who have real GPGPU-Sim or profiler traces) and so synthetic runs can be
// frozen into reproducible artefacts.
//
// The format is a compact little-endian binary stream of per-warp records:
//
//	header:  magic "ARIT" | u32 version | u32 cores | u32 warpsPerCore
//	record:  u16 core | u16 warp | u32 compute | u8 flags | u8 naddr |
//	         naddr x u64 addr
//
// Each record is one "NextCompute + NextMem" step of one warp. flags bit 0
// marks a store.

const (
	traceMagic   = "ARIT"
	traceVersion = 1
	maxTraceAddr = 8
)

// Workload is the instruction-stream interface this package generates,
// records and replays. It is structurally identical to gpu.Workload, so
// Generators, Recorders and Replayers plug straight into cores.
type Workload interface {
	NextCompute(core, warp int) int
	NextMem(core, warp int, scratch []uint64) (write bool, addrs []uint64)
}

var (
	_ Workload = (*Generator)(nil)
	_ Workload = (*Recorder)(nil)
	_ Workload = (*Replayer)(nil)
)

// Recorder wraps a Workload and tees every generated step to an output
// stream while passing results through unchanged.
type Recorder struct {
	inner Workload
	w     *bufio.Writer
	// pendingCompute holds NextCompute results until the matching NextMem
	// completes the record.
	pendingCompute map[[2]int]int
	err            error
	records        uint64
}

// NewRecorder starts a trace on w for a system of the given shape. The
// caller must Flush when done.
func NewRecorder(inner Workload, w io.Writer, cores, warpsPerCore int) (*Recorder, error) {
	if inner == nil {
		return nil, fmt.Errorf("trace: recorder needs an inner workload")
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return nil, err
	}
	for _, v := range []uint32{traceVersion, uint32(cores), uint32(warpsPerCore)} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return nil, err
		}
	}
	return &Recorder{
		inner:          inner,
		w:              bw,
		pendingCompute: make(map[[2]int]int),
	}, nil
}

// NextCompute implements Workload.
func (r *Recorder) NextCompute(core, warp int) int {
	n := r.inner.NextCompute(core, warp)
	r.pendingCompute[[2]int{core, warp}] = n
	return n
}

// NextMem implements Workload, emitting one record combining the pending
// compute segment with this memory instruction.
func (r *Recorder) NextMem(core, warp int, scratch []uint64) (bool, []uint64) {
	write, addrs := r.inner.NextMem(core, warp, scratch)
	if r.err != nil {
		return write, addrs
	}
	key := [2]int{core, warp}
	compute := r.pendingCompute[key]
	delete(r.pendingCompute, key)

	var buf [16]byte
	binary.LittleEndian.PutUint16(buf[0:], uint16(core))
	binary.LittleEndian.PutUint16(buf[2:], uint16(warp))
	binary.LittleEndian.PutUint32(buf[4:], uint32(compute))
	flags := byte(0)
	if write {
		flags |= 1
	}
	buf[8] = flags
	n := len(addrs)
	if n > maxTraceAddr {
		n = maxTraceAddr
	}
	buf[9] = byte(n)
	if _, err := r.w.Write(buf[:10]); err != nil {
		r.err = err
		return write, addrs
	}
	for i := 0; i < n; i++ {
		if err := binary.Write(r.w, binary.LittleEndian, addrs[i]); err != nil {
			r.err = err
			return write, addrs
		}
	}
	r.records++
	return write, addrs
}

// Flush finishes the trace and reports any deferred write error. Compute
// segments whose closing memory instruction never happened (the simulation
// ended mid-segment) are emitted as address-less tail records, so a replay
// reproduces the recorded run exactly over the same horizon.
func (r *Recorder) Flush() error {
	if r.err != nil {
		return r.err
	}
	keys := make([][2]int, 0, len(r.pendingCompute))
	for k := range r.pendingCompute {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		var buf [10]byte
		binary.LittleEndian.PutUint16(buf[0:], uint16(k[0]))
		binary.LittleEndian.PutUint16(buf[2:], uint16(k[1]))
		binary.LittleEndian.PutUint32(buf[4:], uint32(r.pendingCompute[k]))
		// flags 0, naddr 0: a compute-only tail record.
		if _, err := r.w.Write(buf[:]); err != nil {
			return err
		}
		r.records++
	}
	r.pendingCompute = make(map[[2]int]int)
	return r.w.Flush()
}

// Records returns the number of records written.
func (r *Recorder) Records() uint64 { return r.records }

// replayRecord is one decoded trace step.
type replayRecord struct {
	compute int
	write   bool
	addrs   []uint64
}

// Replayer replays a recorded trace as a Workload. Each warp consumes its
// own record stream; when a warp's stream is exhausted it wraps around, so
// finite traces drive arbitrarily long simulations (steady-state replay).
type Replayer struct {
	cores, warps int
	perWarp      [][]replayRecord
	cursor       []int
	// pending mirrors Recorder's bookkeeping (NextCompute reads the record,
	// NextMem consumes it), indexed core*warps+warp so concurrent calls for
	// distinct cores touch disjoint slots.
	pending []*replayRecord
}

// NewReplayer parses a trace stream.
func NewReplayer(rd io.Reader) (*Replayer, error) {
	br := bufio.NewReader(rd)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	var version, cores, warps uint32
	for _, p := range []*uint32{&version, &cores, &warps} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("trace: reading header: %w", err)
		}
	}
	if version != traceVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", version)
	}
	if cores == 0 || warps == 0 || cores > 1<<12 || warps > 1<<12 {
		return nil, fmt.Errorf("trace: implausible shape %dx%d", cores, warps)
	}
	r := &Replayer{
		cores:   int(cores),
		warps:   int(warps),
		perWarp: make([][]replayRecord, int(cores)*int(warps)),
		cursor:  make([]int, int(cores)*int(warps)),
		pending: make([]*replayRecord, int(cores)*int(warps)),
	}
	var hdr [10]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("trace: reading record: %w", err)
		}
		core := int(binary.LittleEndian.Uint16(hdr[0:]))
		warp := int(binary.LittleEndian.Uint16(hdr[2:]))
		if core >= r.cores || warp >= r.warps {
			return nil, fmt.Errorf("trace: record for (%d,%d) outside %dx%d", core, warp, r.cores, r.warps)
		}
		rec := replayRecord{
			compute: int(binary.LittleEndian.Uint32(hdr[4:])),
			write:   hdr[8]&1 != 0,
		}
		naddr := int(hdr[9])
		if naddr > maxTraceAddr {
			return nil, fmt.Errorf("trace: record with %d addresses", naddr)
		}
		rec.addrs = make([]uint64, naddr)
		for i := range rec.addrs {
			if err := binary.Read(br, binary.LittleEndian, &rec.addrs[i]); err != nil {
				return nil, fmt.Errorf("trace: reading addresses: %w", err)
			}
		}
		idx := core*r.warps + warp
		r.perWarp[idx] = append(r.perWarp[idx], rec)
	}
	for i, recs := range r.perWarp {
		if len(recs) == 0 {
			return nil, fmt.Errorf("trace: warp %d has no records", i)
		}
	}
	return r, nil
}

// Shape returns the (cores, warpsPerCore) the trace was recorded for.
func (r *Replayer) Shape() (cores, warpsPerCore int) { return r.cores, r.warps }

// next fetches (and advances past) the current record of (core, warp).
func (r *Replayer) next(core, warp int) *replayRecord {
	idx := core*r.warps + warp
	recs := r.perWarp[idx]
	rec := &recs[r.cursor[idx]%len(recs)]
	r.cursor[idx]++
	return rec
}

// NextCompute implements Workload.
func (r *Replayer) NextCompute(core, warp int) int {
	rec := r.next(core, warp)
	r.pending[core*r.warps+warp] = rec
	return rec.compute
}

// NextMem implements Workload.
func (r *Replayer) NextMem(core, warp int, scratch []uint64) (bool, []uint64) {
	idx := core*r.warps + warp
	rec := r.pending[idx]
	if rec == nil {
		// NextMem without a preceding NextCompute (degenerate caller):
		// consume a fresh record.
		rec = r.next(core, warp)
	}
	r.pending[idx] = nil
	return rec.write, append(scratch, rec.addrs...)
}
