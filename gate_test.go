package rendezvous

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/sweep"
)

// TestSweepWorkersGate is the multi-core performance gate wired into
// `make ci`: on a multi-core runner the CPU-bound sweep workload (the
// BenchmarkSweepWorkers* instances, repeated to a pass of ~60 ms serial)
// must speed up when fanned out, ≥2× with three or more cores. On two cores
// perfect scaling is exactly 2×, so the bar drops to 1.6× to leave room for
// scheduler noise; single-CPU runners skip (the latency-bound concurrency
// proof lives in internal/sweep). Each side is timed best-of-5, after a
// collection, so goroutine start-up and GC debt from the previous pass do
// not land in the measurement.
func TestSweepWorkersGate(t *testing.T) {
	cores := runtime.GOMAXPROCS(0)
	if cores < 2 {
		t.Skip("single-CPU runner: CPU-bound speedup is unobservable")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	vs := []float64{0.25, 0.4, 0.5, 0.6, 0.75, 0.9}
	phis := []float64{math.Pi / 4, math.Pi / 2, 3 * math.Pi / 4, math.Pi}
	const reps = 200 // passes over the 24 instances per timed sweep
	cells := len(vs) * len(phis)
	run := func(workers int) time.Duration {
		runtime.GC()
		start := time.Now()
		_, err := sweep.Run(reps*cells, func(i int, _ *rand.Rand) (float64, error) {
			i %= cells
			in := Instance{
				Attrs: Attributes{V: vs[i/len(phis)], Tau: 1, Phi: phis[i%len(phis)], Chi: CCW},
				D:     XY(1, 0),
				R:     0.25,
			}
			res, err := Rendezvous(CumulativeSearch(), in, Options{Horizon: 1e5})
			if err != nil {
				return 0, err
			}
			return res.Time, nil
		}, sweep.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	run(0) // warm up code paths before timing
	serial, parallel := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for range 5 {
		serial = min(serial, run(1))
		parallel = min(parallel, run(0))
	}
	required := 2.0
	if cores == 2 {
		required = 1.6
	}
	speedup := float64(serial) / float64(parallel)
	t.Logf("serial %v, %d workers %v: %.2fx speedup (gate %.1fx)", serial, cores, parallel, speedup, required)
	if speedup < required {
		t.Errorf("parallel sweep speedup %.2fx below the %.1fx gate on %d cores", speedup, required, cores)
	}
}
