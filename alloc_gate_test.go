package rendezvous

import (
	"runtime"
	"testing"
)

// Allocation-ceiling gates for the simulator hot paths. BENCH_sim.json
// tracks the trajectory across PRs, but these gates fail `go test ./...` on
// any machine the moment a change re-introduces per-segment boxing or
// cursor allocations, without needing a benchmark run.
//
// The rendezvous ceiling is the measured floor: 5 allocs, from one
// walk-state struct plus, per robot, a frame-transform closure and the
// callback it wraps around the program when the cursor runs it (the
// cursors' pumps come from a free list). Search measures 3 against a
// ceiling of 10. The ceilings are absolute, not relative: an extra alloc
// per walk means a hot-path structure changed and must be justified by
// re-pinning the number here.
const (
	rendezvousAllocCeiling = 5
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
