package cache

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/rng"
)

// TestCacheMatchesStampOracle drives the flat-table cache and the way-slice,
// LRU-stamp oracle with the same seeded stream of Access, AccessNoAllocate,
// Invalidate and Probe calls, on 4-, 8- and 16-way geometries over an
// address range four times the capacity (so sets overflow, lines are evicted
// dirty and clean, and invalidations punch holes a later miss refills).
// Every Result, writeback address, return value and counter must match.
func TestCacheMatchesStampOracle(t *testing.T) {
	for _, ways := range []int{4, 8, 16} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%dway/seed%d", ways, seed), func(t *testing.T) {
				cfg := Config{SizeBytes: 8 << 10, LineBytes: 128, Ways: ways}
				got, want := New(cfg), newStampCache(cfg)
				r := rng.New(seed)
				lines := 4 * cfg.SizeBytes / cfg.LineBytes
				for op := 0; op < 40000; op++ {
					addr := uint64(r.Intn(lines))*128 + uint64(r.Intn(128))
					write := r.Intn(3) == 0
					switch k := r.Intn(10); {
					case k < 6:
						if g, w := got.Access(addr, write), want.Access(addr, write); g != w {
							t.Fatalf("op %d: Access(%#x, %v) = %+v, oracle %+v", op, addr, write, g, w)
						}
					case k < 8:
						if g, w := got.AccessNoAllocate(addr, write), want.AccessNoAllocate(addr, write); g != w {
							t.Fatalf("op %d: AccessNoAllocate(%#x, %v) = %+v, oracle %+v", op, addr, write, g, w)
						}
					case k < 9:
						gp, gd := got.Invalidate(addr)
						wp, wd := want.Invalidate(addr)
						if gp != wp || gd != wd {
							t.Fatalf("op %d: Invalidate(%#x) = %v/%v, oracle %v/%v", op, addr, gp, gd, wp, wd)
						}
					default:
						if g, w := got.Probe(addr), want.Probe(addr); g != w {
							t.Fatalf("op %d: Probe(%#x) = %v, oracle %v", op, addr, g, w)
						}
					}
				}
				g := [5]uint64{got.Accesses, got.Hits, got.Misses, got.Evictions, got.Writeback}
				w := [5]uint64{want.Accesses, want.Hits, want.Misses, want.Evictions, want.Writeback}
				if g != w {
					t.Fatalf("accesses/hits/misses/evictions/writebacks = %v, oracle %v", g, w)
				}
				if g[3] == 0 || g[4] == 0 {
					t.Fatalf("stream never evicted (%d) or wrote back (%d): it tests nothing", g[3], g[4])
				}
			})
		}
	}
}

// TestMSHRMatchesSliceOracle drives the flat-table MSHR and the slice-of-
// slices oracle with the same seeded lookup/fill stream (the oracle's fill
// waiters recycled as its callers do), on small and Table I geometries,
// with few enough lines that merges, merge-slot and table stalls and fills
// out of allocation order all occur.
func TestMSHRMatchesSliceOracle(t *testing.T) {
	for _, g := range []struct{ entries, waiters int }{{4, 2}, {8, 4}, {32, 8}} {
		t.Run(fmt.Sprintf("%dx%d", g.entries, g.waiters), func(t *testing.T) {
			got, want := NewMSHR(g.entries, g.waiters), newSliceMSHR(g.entries, g.waiters)
			r := rng.New(uint64(g.entries))
			lines := 2 * g.entries
			for op := 0; op < 50000; op++ {
				line := uint64(r.Intn(lines)) * 128
				if r.Intn(3) != 0 {
					waiter := r.Intn(1 << 20)
					if o, w := got.Lookup(line, waiter), want.Lookup(line, waiter); o != w {
						t.Fatalf("op %d: Lookup(%#x, %d) = %v, oracle %v", op, line, waiter, o, w)
					}
				} else {
					ws, ow := got.Fill(line), want.Fill(line)
					gw := make([]int, len(ws))
					for i, w := range ws {
						gw[i] = int(w)
					}
					if !slices.Equal(gw, ow) || (ws == nil) != (ow == nil) {
						t.Fatalf("op %d: Fill(%#x) = %v, oracle %v", op, line, ws, ow)
					}
					want.Recycle(ow)
				}
				if got.Pending(line) != want.Pending(line) || got.Full() != want.Full() {
					t.Fatalf("op %d: Pending/Full = %v/%v, oracle %v/%v", op, got.Pending(line), got.Full(), want.Pending(line), want.Full())
				}
			}
			gs := [3]uint64{got.Merges, got.Allocs, got.FullStall}
			ws := [3]uint64{want.Merges, want.Allocs, want.FullStall}
			if gs != ws {
				t.Fatalf("merges/allocs/stalls = %v, oracle %v", gs, ws)
			}
			if gs[0] == 0 || gs[2] == 0 {
				t.Fatalf("stream never merged (%d) or stalled (%d): it tests nothing", gs[0], gs[2])
			}
		})
	}
}

// TestConfigRejectsUnrankableWays: the LRU rank field orders at most
// MaxWays ways.
func TestConfigRejectsUnrankableWays(t *testing.T) {
	ok := Config{SizeBytes: MaxWays * 128, LineBytes: 128, Ways: MaxWays}
	if err := ok.Validate(); err != nil {
		t.Fatalf("%d ways rejected: %v", MaxWays, err)
	}
	bad := Config{SizeBytes: 2 * MaxWays * 128, LineBytes: 128, Ways: 2 * MaxWays}
	if err := bad.Validate(); err == nil {
		t.Fatalf("%d ways accepted", bad.Ways)
	}
}
