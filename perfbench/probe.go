package main

import (
	"time"

	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/sim"
	"repro/internal/trajectory"
)

// The probes shared by the serve-cold and grid-sampled traced runs: the
// contact walk and the trajectory generation under it, timed apart.

// simLayers sets the sim.* and trajectory.* metrics from probe samples (µs
// and counts).
func (r *run) simLayers(walk, simSelf, gen, segs, intervals []float64) {
	sw := sortedCopy(walk)
	r.layer["sim.walk_us.p50"] = r.pct(sw, 0.5, "sim.walk_us")
	r.layer["sim.walk_us.p99"] = r.pct(sw, 0.99, "sim.walk_us")
	r.layer["sim.self_us.p50"] = r.pct(sortedCopy(simSelf), 0.5, "sim.self_us")
	r.layer["sim.intervals.mean"] = mean(intervals)
	r.layer["trajectory.gen_us.p50"] = r.pct(sortedCopy(gen), 0.5, "trajectory.gen_us")
	r.layer["trajectory.segments.mean"] = mean(segs)
}

// genInstance times generating both robots' trajectories of a rendezvous
// up to time until: the program through frame.Attributes.Apply and
// trajectory.Truncate. It returns the time taken and the segments made.
func genInstance(in sim.Instance, until float64) (time.Duration, int) {
	return genSources(until, frame.Reference().Apply(program(), geom.Zero), in.Attrs.Apply(program(), in.D))
}

func genSources(until float64, srcs ...trajectory.Source) (time.Duration, int) {
	t0 := time.Now()
	n := 0
	for _, s := range srcs {
		for range trajectory.Truncate(s, until) {
			n++
		}
	}
	return time.Since(t0), n
}
