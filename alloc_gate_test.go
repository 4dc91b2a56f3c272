package rendezvous

import (
	"runtime"
	"testing"

	"repro/internal/algo"
	"repro/internal/frame"
	"repro/internal/gather"
	"repro/internal/geom"
)

// Allocation-ceiling gates for the simulator hot paths. BENCH_sim.json
// tracks the trajectory across PRs, but these gates fail `go test ./...` on
// any machine the moment a change re-introduces per-segment boxing or
// cursor allocations, without needing a benchmark run.
//
// The rendezvous ceiling is the measured floor: 1 alloc, the walk-state
// struct holding both robots' streams, frames and movers (the programs run
// unwrapped, each stream applies its robot's frame as it pulls segments,
// and the cursors' pumps come from a free list). Search measures 3 against
// a ceiling of 10. The ceilings are absolute, not relative: an extra alloc
// per walk means a hot-path structure changed and must be justified by
// re-pinning the number here.
const (
	rendezvousAllocCeiling = 1
	searchAllocCeiling     = 10
)

// toHorizonByteCeiling bounds the bytes one rendezvous walk to the horizon
// may allocate, however long it is: the cursors generate each stream once
// into reused windows, so memory does not grow with the walk.
const toHorizonByteCeiling = 4 << 10

func TestRendezvousHotAllocGate(t *testing.T) {
	in := Instance{
		Attrs: Attributes{V: 0.5, Tau: 1, Phi: 0, Chi: CCW},
		D:     XY(1, 0),
		R:     0.25,
	}
	// Warm the cursors' pump free list so the gate measures steady state.
	if res, err := Rendezvous(CumulativeSearch(), in, Options{Horizon: 1e4}); err != nil || !res.Met {
		t.Fatalf("warmup: met=%v err=%v", res.Met, err)
	}
	avg := testing.AllocsPerRun(20, func() {
		res, err := Rendezvous(CumulativeSearch(), in, Options{Horizon: 1e4})
		if err != nil || !res.Met {
			t.Fatalf("met=%v err=%v", res.Met, err)
		}
	})
	if avg > rendezvousAllocCeiling {
		t.Errorf("Rendezvous hot path: %.1f allocs/run, ceiling %d", avg, rendezvousAllocCeiling)
	}
}

func TestSearchHotAllocGate(t *testing.T) {
	target := Polar(2, 0.9)
	if res, err := Search(CumulativeSearch(), target, 0.01, Options{Horizon: 1e6}); err != nil || !res.Met {
		t.Fatalf("warmup: met=%v err=%v", res.Met, err)
	}
	avg := testing.AllocsPerRun(20, func() {
		res, err := Search(CumulativeSearch(), target, 0.01, Options{Horizon: 1e6})
		if err != nil || !res.Met {
			t.Fatalf("met=%v err=%v", res.Met, err)
		}
	})
	if avg > searchAllocCeiling {
		t.Errorf("Search hot path: %.1f allocs/run, ceiling %d", avg, searchAllocCeiling)
	}
}

// TestRendezvousToHorizonO1Memory walks an instance that never meets
// (identical attributes: Theorem 4's infeasible case) over half a million
// intervals and checks that the walk's allocations stay O(1).
func TestRendezvousToHorizonO1Memory(t *testing.T) {
	in := Instance{
		Attrs: Attributes{V: 1, Tau: 1, Phi: 0, Chi: CCW},
		D:     XY(1, 0),
		R:     0.25,
	}
	walk := func() Result {
		res, err := Rendezvous(CumulativeSearch(), in, Options{Horizon: 1e5})
		if err != nil || res.Met {
			t.Fatalf("met=%v err=%v", res.Met, err)
		}
		return res
	}
	walk() // warm-up: leaves the cursors' pumps on the free list
	// TotalAlloc is process-wide, so an allocation elsewhere in the process
	// can land inside one measurement; a walk whose memory grew with its
	// length would exceed the ceiling every time.
	var b uint64
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := walk()
		runtime.ReadMemStats(&after)
		if res.Intervals < 500_000 {
			t.Fatalf("walk took %d intervals, want a walk to the horizon of over 500k", res.Intervals)
		}
		b = after.TotalAlloc - before.TotalAlloc
		t.Logf("%d-interval walk allocated %d bytes in %d mallocs", res.Intervals, b, after.Mallocs-before.Mallocs)
		if b <= toHorizonByteCeiling {
			return
		}
	}
	t.Errorf("every walk allocated over the %d-byte ceiling, the last %d bytes", toHorizonByteCeiling, b)
}

// gatherAllocCeiling is the measured floor of one gather.Simulate call on
// E10's first three-robot instance: 38 allocs. Each of the three pairwise
// walks takes 7 (a walk state plus, per robot, a frame-transform closure,
// the callback it wraps around the program and the Frame it builds); the
// gathering walk takes 4 per robot (a Walker besides the same three) and 4
// slices; the result holds 1. None of it depends on the walk's length.
const gatherAllocCeiling = 38

// TestGatherAllocGate checks that the E10 gathering walk allocates a fixed
// number of objects however far it runs: the same count at two horizons 10×
// apart (the diameter never drops to r on this instance, so both walks run
// to their horizons), under gatherAllocCeiling.
func TestGatherAllocGate(t *testing.T) {
	mk := func(v, x, y float64) gather.Robot {
		return gather.Robot{Attrs: frame.Attributes{V: v, Tau: 1, Chi: frame.CCW}, Origin: geom.V(x, y)}
	}
	in := gather.Instance{R: 0.25, Robots: []gather.Robot{mk(1, 0, 0), mk(0.5, 1, 0), mk(0.75, 0, 1)}}
	allocs := func(horizon float64) float64 {
		simulate := func() {
			res, err := gather.Simulate(algo.CumulativeSearch(), in, gather.Options{Horizon: horizon})
			if err != nil || res.Gathered {
				t.Fatalf("horizon %g: gathered=%v err=%v", horizon, res.Gathered, err)
			}
		}
		simulate() // warm the cursors' pump free list
		return testing.AllocsPerRun(3, simulate)
	}
	short, long := allocs(2e3), allocs(2e4)
	t.Logf("gather.Simulate: %.1f allocs at horizon 2e3, %.1f at 2e4", short, long)
	if short != long {
		t.Errorf("allocations grow with the horizon: %.1f at 2e3, %.1f at 2e4", short, long)
	}
	if long > gatherAllocCeiling {
		t.Errorf("gather.Simulate: %.1f allocs/run, ceiling %d", long, gatherAllocCeiling)
	}
}
