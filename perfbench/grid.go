package main

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"time"

	"repro/internal/batch"
	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/sampler"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// The grid-sampled workload: a sampled rendezvous grid of 5 speeds × 7
// orientations with 8 random displacement directions per point (280
// instances), drawn from the workload seed.
var gridAxes = []string{"v=0.25:0.75:0.125", "phi=0:3:0.5"}

const (
	gridSamples     = 8
	gridProbeRounds = 4 // the probe walks each instance this often, for a p99 with 10 samples beyond
)

func sweepGridPass(cfg experiments.Config) (*experiments.GridResult, error) {
	cfg.Samples = gridSamples
	return experiments.SweepGrid(gridAxes, "search", cfg)
}

// gridSampled: experiments.SweepGrid through the default batch kernel
// (sim.RendezvousBatch over batch.Lanes rows), each pass checked against
// the scalar path's result, which set-up computes outside the timed window.
func gridSampled(r *run) error {
	var ref *experiments.GridResult
	var scalar []float64
	setup, err := setupLoop(func() error {
		t0 := time.Now()
		res, err := sweepGridPass(experiments.Config{Seed: r.opt.seed})
		if err != nil {
			return err
		}
		scalar = append(scalar, time.Since(t0).Seconds())
		ref = res
		got, err := sweepGridPass(experiments.Config{Seed: r.opt.seed, Batch: true})
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(got, ref) {
			return errors.New("the batch kernel's grid differs from the scalar path's")
		}
		return nil
	})
	if err != nil {
		return err
	}
	pass := func(cfg experiments.Config) error {
		got, err := sweepGridPass(cfg)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(got, ref) {
			return errors.New("the batch kernel's grid differs from the scalar path's")
		}
		return nil
	}
	phases, err := r.passLoops("experiments.SweepGrid", gridRefTable, pass)
	if err != nil {
		return err
	}
	ls := phases[len(phases)-1]
	if r.tr == nil {
		r.inProcE2E(ls, setup)
		return nil
	}
	r.sweepLayers(ls)
	batchWall := median(passWalls(phases[0]))
	r.layer["batch.speedup"] = median(scalar) / batchWall
	return r.gridProbe(batchWall)
}

// gridInstances rebuilds the grid's instances exactly as SweepGrid draws
// them: point i/samples of the grid, displacement direction from the
// sampler draw of job i under the workload seed.
func gridInstances(seed int64) ([][]sim.Instance, error) {
	grid, err := sweep.ParseGrid(gridAxes...)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(grid))
	for k, ax := range grid {
		names[k] = ax.Name
	}
	src := sampler.New(experiments.Config{}.Sampler, gridSamples)
	rows := make([][]sim.Instance, grid.Size())
	for p := range rows {
		for s := 0; s < gridSamples; s++ {
			in, err := experiments.GridInstance(names, grid.Point(p))
			if err != nil {
				return nil, err
			}
			i := p*gridSamples + s
			in.D = geom.Polar(in.D.Norm(), 2*math.Pi*src.Draws(seed, i).Float64(0))
			rows[p] = append(rows[p], in)
		}
	}
	return rows, nil
}

// gridProbe times the layers under a pass: each row through
// sim.RendezvousBatch alone (the kernel), and each instance through the
// scalar sim.Rendezvous and its trajectory generation. The residual
// compares the kernel time spread over the workers with the median pass.
func (r *run) gridProbe(passWall float64) error {
	rows, err := gridInstances(r.opt.seed)
	if err != nil {
		return err
	}
	kernelPass := r.tr.newID()
	kStart := time.Since(r.epoch)
	var kernel float64
	for p, row := range rows {
		var ln batch.Lanes
		for _, in := range row {
			ln.AddRendezvous(in.Attrs, in.D, in.R, experiments.RendezvousHorizon(in))
		}
		t0 := time.Since(r.epoch)
		_, errs := sim.RendezvousBatch(program(), &ln, sim.Options{})
		t1 := time.Since(r.epoch)
		if err := errors.Join(errs...); err != nil {
			return err
		}
		r.tr.add("sim.RendezvousBatch", kernelPass, int64(p), t0, t1)
		kernel += (t1 - t0).Seconds()
	}
	r.tr.addID(kernelPass, "kernel.pass", 0, 0, kStart, time.Since(r.epoch))
	workers := float64(runtime.GOMAXPROCS(0))
	r.layer["trace.residual_ratio"] = (passWall - kernel/workers) / passWall
	r.note("residual: batch pass median %.4fs, kernel rows sum to %.4fs over %g workers", passWall, kernel, workers)

	var walk, segs, intervals []float64
	for round := 0; round < gridProbeRounds; round++ {
		for p, row := range rows {
			for s, in := range row {
				req := int64(p*gridSamples + s)
				t0 := time.Since(r.epoch)
				res, err := sim.Rendezvous(program(), in, sim.Options{Horizon: experiments.RendezvousHorizon(in)})
				t1 := time.Since(r.epoch)
				if err != nil {
					return err
				}
				id := r.tr.add("sim.Rendezvous", 0, req, t0, t1)
				gd, n := genInstance(in, res.Time)
				r.tr.addProbe("trajectory.gen", id, req, t0, gd)
				walk = append(walk, us(t1-t0))
				segs = append(segs, float64(n))
				intervals = append(intervals, float64(res.Intervals))
			}
		}
	}
	spans := r.tr.spans
	self := selfTimes(spans)
	r.simLayers(walk, selfByName(spans, self, "sim.Rendezvous"), durationsByName(spans, "trajectory.gen"), segs, intervals)
	return nil
}
