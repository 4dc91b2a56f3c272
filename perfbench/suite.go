package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/sweep"
)

// goldenRunAll is the committed rendering of the default suite at seed 7.
// The default suite draws no Monte-Carlo samples, so its bytes do not
// depend on the seed and every pass at every seed must match.
const goldenRunAll = "internal/experiments/testdata/golden_runall_seed7.txt"

// tableHeader matches the first line of a rendered table ("E10 — ...").
var tableHeader = regexp.MustCompile(`(?m)^[EA][0-9]+ — `)

// suiteCold: the researcher's table regeneration, one cold
// experiments.RunAllCfg pass after another with the default cmd/experiments
// config (one worker per CPU, batch kernels on, no cache).
func suiteCold(r *run) error {
	golden, err := os.ReadFile(filepath.Join(r.opt.root, goldenRunAll))
	if err != nil {
		return err
	}
	wantTables := len(experiments.All())
	pass := func(cfg experiments.Config) error {
		var buf bytes.Buffer
		if err := experiments.RunAllCfg(&buf, false, cfg); err != nil {
			return fmt.Errorf("a paper claim failed: %w", err)
		}
		if n := len(tableHeader.FindAll(buf.Bytes(), -1)); n != wantTables {
			r.invalid("the suite rendered %d of %d tables", n, wantTables)
		}
		return checkGolden(buf.Bytes(), golden)
	}
	setup, err := setupLoop(func() error { return pass(experiments.Config{Seed: r.opt.seed, Batch: true}) })
	if err != nil {
		return err
	}
	phases, err := r.passLoops("experiments.RunAllCfg", suiteRefTable, pass)
	if err != nil {
		return err
	}
	ls := phases[len(phases)-1]
	if r.tr == nil {
		r.inProcE2E(ls, setup)
		return nil
	}
	r.sweepLayers(ls)
	r.suiteResidual(ls)
	return r.experimentProbe()
}

// suiteResidual sets trace.residual_ratio from the traced passes' own
// spans: the layers of a pass are its sweep jobs, so the residual is the
// share of the median pass wall time that the jobs' busy time, spread over
// the workers, does not cover — a worker idle, or work outside any job.
func (r *run) suiteResidual(ls loopStat) {
	workers := float64(runtime.GOMAXPROCS(0))
	busy := make([]float64, len(ls.passes))
	for k, p := range ls.passes {
		for _, j := range p.jobs {
			busy[k] += j / 1e3
		}
		busy[k] /= workers
	}
	wall := median(passWalls(ls))
	r.layer["trace.residual_ratio"] = (wall - median(busy)) / wall
	r.note("residual: suite pass median %.3fs, its jobs spread over %g workers %.3fs", wall, workers, median(busy))
}

// experimentProbe runs every experiment of the suite alone, one after the
// other, recording its wall time, allocation and sweep utilisation.
func (r *run) experimentProbe() error {
	workers := float64(runtime.GOMAXPROCS(0))
	parent := r.tr.newID()
	start := time.Since(r.epoch)
	for _, e := range experiments.All() {
		mon := &sweep.Monitor{}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Since(r.epoch)
		err := experiments.RunOneCfg(e.ID, io.Discard, false, experiments.Config{Seed: r.opt.seed, Batch: true, Monitor: mon})
		t1 := time.Since(r.epoch)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return fmt.Errorf("experiment %s alone: %w", e.ID, err)
		}
		r.tr.add("experiments."+e.ID, parent, 0, t0, t1)
		wall := (t1 - t0).Seconds()
		var busy float64
		for _, d := range mon.Durations() {
			busy += d
		}
		r.layer["experiments."+e.ID+"_s"] = wall
		r.layer["experiments."+e.ID+"_alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
		r.layer["experiments."+e.ID+"_mallocs"] = float64(m1.Mallocs - m0.Mallocs)
		r.layer["sweep.util."+e.ID] = busy / (wall * workers)
	}
	r.tr.addID(parent, "experiments.serial", 0, 0, start, time.Since(r.epoch))
	return nil
}
