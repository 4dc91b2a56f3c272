package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/sweep"
)

// The in-process workloads call the experiments layer directly, as
// cmd/experiments does. Their operation is one sweep job, timed by
// sweep.Monitor (a batched row's time is shared by its lanes); their pass
// is one call of the entry point.

// passStat is one pass of an in-process workload and, on an untraced
// phase, the reference passes run just before and just after it.
type passStat struct {
	start, end  time.Duration // offsets from the run's epoch
	jobs        []float64     // per-job wall times, ms
	rows, lanes int64         // batch kernel calls and the lanes in them
	alloc       uint64        // heap bytes allocated during the pass
	ok          bool
	refWall     [2]time.Duration // the reference passes' wall times
	refJobs     []float64        // the per-job wall times of the one after, ms
}

func (p passStat) wall() time.Duration { return p.end - p.start }

// loopStat is one phase of passes and the runtime counters around it.
type loopStat struct {
	passes []passStat
	m0, m1 runtime.MemStats
	rss    float64 // peak RSS before the phase's first reference pass, MB
}

// passLoop runs passes until d has passed; each pass gets a Config with a
// fresh Monitor and batch counter. A pass whose output fails its check
// counts as a failed operation. With a tracer it records each pass as a
// span named name and each sweep job as a child span; without one, a
// reference pass runs before the first pass and after every pass.
func (r *run) passLoop(d time.Duration, tr *tracer, name string, refTable int, pass func(experiments.Config) error) (loopStat, error) {
	var ls loopStat
	var before time.Duration
	if tr == nil {
		var err error
		if ls.rss, err = peakRSSMB("self"); err != nil {
			return ls, err
		}
		before, _ = refPass(refTable)
	}
	runtime.ReadMemStats(&ls.m0)
	deadline := time.Now().Add(d)
	for k := int64(0); time.Now().Before(deadline); k++ {
		var rows, lanes atomic.Int64
		id := tr.newID()
		mon := &sweep.Monitor{}
		if tr != nil {
			mon.OnJob = func(jd time.Duration) {
				end := time.Since(r.epoch)
				tr.add("sweep.job", id, k, end-jd, end)
			}
		}
		cfg := experiments.Config{
			Seed:    r.opt.seed,
			Batch:   true,
			Monitor: mon,
			OnBatch: func(n, l int) { rows.Add(int64(n)); lanes.Add(int64(l)) },
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		p := passStat{start: time.Since(r.epoch)}
		err := pass(cfg)
		p.end = time.Since(r.epoch)
		runtime.ReadMemStats(&m1)
		p.alloc = m1.TotalAlloc - m0.TotalAlloc
		if tr == nil {
			p.refWall[0] = before
			p.refWall[1], p.refJobs = refPass(refTable)
			before = p.refWall[1]
		}
		tr.addID(id, name, 0, k, p.start, p.end)
		p.ok = err == nil
		if err != nil {
			r.note("pass %d failed: %v", k, err)
		}
		for _, s := range mon.Durations() {
			p.jobs = append(p.jobs, s*1e3)
		}
		p.rows, p.lanes = rows.Load(), lanes.Load()
		ls.passes = append(ls.passes, p)
	}
	runtime.ReadMemStats(&ls.m1)
	return ls, nil
}

// passLoops runs the load: one untraced phase, or an untraced and a traced
// half on a traced run, and counts every pass as an attempted operation.
// The last phase is the one the metrics describe.
func (r *run) passLoops(name string, refTable int, pass func(experiments.Config) error) ([]loopStat, error) {
	r.note("cache: none (the cmd/experiments default), hit ratio 0")
	ls, err := r.passLoop(r.half(), nil, name, refTable, pass)
	if err != nil {
		return nil, err
	}
	phases := []loopStat{ls}
	if r.tr != nil {
		ls, err := r.passLoop(r.half(), r.tr, name, refTable, pass)
		if err != nil {
			return nil, err
		}
		phases = append(phases, ls)
		r.layer["trace.overhead_ratio"] = mean(passWalls(phases[1])) / mean(passWalls(phases[0]))
	}
	for _, ls := range phases {
		for _, p := range ls.passes {
			r.attempted++
			if !p.ok {
				r.failed++
			}
		}
	}
	return phases, nil
}

func passWalls(ls loopStat) []float64 {
	xs := make([]float64, len(ls.passes))
	for k, p := range ls.passes {
		xs[k] = p.wall().Seconds()
	}
	return xs
}

// inProcE2E computes the end-to-end metrics of an untraced in-process
// phase. The job percentiles are both over the reference jobs' median;
// qps_rel is the median over passes of the pass's jobs per second over
// those of the reference passes around it. The peak RSS is the set-up
// passes', read before the first reference pass, whose allocations would
// otherwise set it.
func (r *run) inProcE2E(ls loopStat, setup []float64) {
	var jobs, refTimes, rates []float64
	var alloc uint64
	for _, p := range ls.passes {
		jobs = append(jobs, p.jobs...)
		refTimes = append(refTimes, p.refJobs...)
		alloc += p.alloc
		rate := float64(len(p.jobs)) / p.wall().Seconds()
		refRate := 2 * refJobs / (p.refWall[0] + p.refWall[1]).Seconds()
		rates = append(rates, rate/refRate)
	}
	p50, p99 := r.tail(sortedCopy(jobs), "job")
	refP50 := r.pct(sortedCopy(refTimes), 0.5, "reference job latency")
	r.e2e["setup_s"] = median(setup)
	r.e2e["qps_rel"] = median(rates)
	r.e2e["p50_rel"] = p50 / refP50
	r.e2e["p99_rel"] = p99 / refP50
	r.e2e["alloc_mb"] = float64(alloc) / float64(len(ls.passes)) / 1e6
	r.e2e["peak_rss_mb"] = ls.rss
	r.note("passes: %d, pass wall median %.4f s; job p50 %.4f ms, p99 %.4f ms; reference p50 %.4f ms over %d jobs",
		len(ls.passes), median(passWalls(ls)), p50, p99, refP50, len(refTimes))
}

// sweepLayers sets the sweep, batch and runtime metrics of a traced phase.
func (r *run) sweepLayers(ls loopStat) {
	workers := float64(runtime.GOMAXPROCS(0))
	var utils []float64
	var jobs, maxJob float64
	var rows, lanes int64
	for _, p := range ls.passes {
		var busy float64
		for _, j := range p.jobs {
			busy += j / 1e3
			maxJob = max(maxJob, j)
		}
		utils = append(utils, busy/(p.wall().Seconds()*workers))
		jobs += float64(len(p.jobs))
		rows += p.rows
		lanes += p.lanes
	}
	r.layer["sweep.util"] = median(utils)
	r.layer["sweep.job_ms.max"] = maxJob
	if rows > 0 {
		r.layer["batch.lanes_per_row"] = float64(lanes) / float64(rows)
	}
	r.layer["runtime.alloc_kb_per_req"] = float64(ls.m1.TotalAlloc-ls.m0.TotalAlloc) / max(jobs, 1) / 1e3
	r.layer["runtime.gc_count"] = float64(ls.m1.NumGC - ls.m0.NumGC)
}

// setupLoop times setups repetitions of fn and returns their wall times.
func setupLoop(fn func() error) ([]float64, error) {
	var times []float64
	for k := 0; k < setups; k++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", k, err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return times, nil
}
