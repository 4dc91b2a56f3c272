// Package gather extends the paper's two-robot rendezvous to n robots — the
// open direction named in its conclusion ("it would be challenging to solve
// deterministic gathering for multiple robots in this setting of minimal
// knowledge", Section 5).
//
// All robots execute the same local-frame program under their own hidden
// attributes. Two notions of success are measured:
//
//   - Pairwise rendezvous: for each pair (i, j), the first time their
//     distance drops to r. Theorem 2/4 applies to each pair in isolation,
//     so every pair with a symmetry-breaking difference must meet.
//   - Gathering: the first time ALL robots are simultaneously within r of
//     each other (diameter ≤ r). No theorem in the paper guarantees this;
//     the simulator measures whether and when it happens.
//
// The gathering detector is a conservative safe-advance on the diameter
// function g(t) = max pairwise distance − r: with per-robot speed bounds
// v_i, g can decrease at rate at most the two largest speeds combined, so
// advancing by g divided by that rate can never skip the gathering instant.
package gather

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/motion"
	"repro/internal/sim"
	"repro/internal/trajectory"
)

// Robot is one participant: hidden attributes and a starting position in
// the global frame.
type Robot struct {
	Attrs  frame.Attributes
	Origin geom.Vec
}

// Instance is an n-robot gathering instance with shared visibility radius R.
type Instance struct {
	Robots []Robot
	R      float64
}

// Validate reports whether the instance is well-formed: at least two robots
// with legal attributes, distinct origins, and positive visibility.
func (in Instance) Validate() error {
	if len(in.Robots) < 2 {
		return errors.New("gather: need at least two robots")
	}
	if in.R <= 0 {
		return errors.New("gather: visibility radius must be positive")
	}
	for i, r := range in.Robots {
		if err := r.Attrs.Validate(); err != nil {
			return fmt.Errorf("gather: robot %d: %w", i, err)
		}
		for j := range i {
			if in.Robots[j].Origin == r.Origin {
				return fmt.Errorf("gather: robots %d and %d share an origin", j, i)
			}
		}
	}
	return nil
}

// PairResult is the first-contact outcome for one robot pair.
type PairResult struct {
	I, J int
	sim.Result
}

// Result is the outcome of a gathering simulation.
type Result struct {
	// Pairs holds the first meeting of every pair (i < j), in
	// lexicographic order.
	Pairs []PairResult
	// Gathered is true when all robots were simultaneously within R
	// (diameter ≤ R) before the horizon.
	Gathered bool
	// GatherTime is the first such time (valid when Gathered).
	GatherTime float64
	// DiameterAtHorizon is the robots' diameter when the run gave up
	// (valid when !Gathered).
	DiameterAtHorizon float64
}

// Options re-uses the two-robot simulator options.
type Options = sim.Options

// Simulate runs all robots on the same program and measures pairwise
// meetings and the gathering time.
func Simulate(program trajectory.Source, in Instance, opt Options) (Result, error) {
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	if opt.Horizon <= 0 {
		return Result{}, sim.ErrBadOptions
	}
	n := len(in.Robots)
	res := Result{Pairs: make([]PairResult, 0, n*(n-1)/2)}

	// Pairwise meetings via the two-robot engine (exact closed forms).
	for i := range in.Robots {
		for j := i + 1; j < n; j++ {
			a := in.Robots[i].Attrs.Apply(program, in.Robots[i].Origin)
			b := in.Robots[j].Attrs.Apply(program, in.Robots[j].Origin)
			r, err := sim.FirstMeeting(a, b, in.R, opt)
			if err != nil {
				return Result{}, fmt.Errorf("pair (%d,%d): %w", i, j, err)
			}
			res.Pairs = append(res.Pairs, PairResult{I: i, J: j, Result: r})
		}
	}

	// Gathering: conservative diameter tracking across all robots.
	gt, ok, diam, err := firstDiameterDrop(program, in, opt)
	if err != nil {
		return Result{}, err
	}
	res.Gathered = ok
	res.GatherTime = gt
	res.DiameterAtHorizon = diam
	return res, nil
}

// firstDiameterDrop finds the first time the robots' diameter is ≤ R, by
// safe advancement over the merged segment timeline. Each robot is walked
// forward once; its mover is refreshed only when its walker moves to a new
// segment (or parks at the end of a finite program), and the diameter
// evaluations reuse one scratch slice, so the walk allocates nothing per
// segment or per safe-advance step.
func firstDiameterDrop(program trajectory.Source, in Instance, opt Options) (t float64, ok bool, diamAtHorizon float64, err error) {
	n := len(in.Robots)
	walkers := make([]*trajectory.Walker, n)
	for i, r := range in.Robots {
		walkers[i] = trajectory.NewWalker(r.Attrs.Apply(program, r.Origin))
	}
	defer func() {
		for _, w := range walkers {
			w.Close()
		}
	}()
	slack := opt.Slack
	if slack <= 0 {
		slack = 1e-9 * in.R
	}

	movers := make([]motion.Mover, n)
	ends := make([]float64, n)
	pos := make([]geom.Vec, n)
	now := 0.0
	for now < opt.Horizon {
		intervalEnd := opt.Horizon
		allHalted := true
		for i, w := range walkers {
			seg, start, dur, advanced := w.SegmentAt(now)
			if advanced {
				if seg == nil {
					movers[i].SetStatic(w.FinalPosition())
					ends[i] = math.Inf(1)
				} else {
					movers[i].Set(seg, start, dur)
					ends[i] = start + dur
				}
			}
			if seg == nil {
				continue
			}
			allHalted = false
			if ends[i] < intervalEnd {
				intervalEnd = ends[i]
			}
		}

		if allHalted {
			// Diameter is constant forever.
			diam, _ := diameterAndRate(movers, pos, now)
			if diam-in.R <= slack {
				return now, true, 0, nil
			}
			return 0, false, diam, nil
		}

		// Safe advance on g(t) = diameter − R within [now, intervalEnd].
		t := now
		for t < intervalEnd {
			diam, closeRate := diameterAndRate(movers, pos, t)
			g := diam - in.R
			if g <= slack {
				return t, true, 0, nil
			}
			if closeRate == 0 {
				break // diameter cannot shrink on this interval
			}
			t += g / closeRate
		}
		now = intervalEnd
	}
	diam, _ := diameterAndRate(movers, pos, opt.Horizon)
	return 0, false, diam, nil
}

// diameterAndRate returns the robots' diameter at time t and an upper bound
// on the rate at which the diameter can decrease (the sum of the two
// largest speed bounds). pos is caller-owned scratch of len(movers).
func diameterAndRate(movers []motion.Mover, pos []geom.Vec, t float64) (diam, rate float64) {
	// Speed bounds are non-negative, so the two largest start at zero.
	var first, second float64
	for i := range movers {
		pos[i] = movers[i].At(t)
		switch v := movers[i].SpeedBound(); {
		case v > first:
			first, second = v, first
		case v > second:
			second = v
		}
	}
	for i := range pos {
		for j := i + 1; j < len(pos); j++ {
			if d := pos[i].Dist(pos[j]); d > diam {
				diam = d
			}
		}
	}
	return diam, first + second
}

// AllPairsFeasible reports whether every robot pair has a symmetry-breaking
// difference (the necessary condition for all pairwise rendezvous). Pair
// feasibility follows Theorem 4 applied to the relative attributes of the
// pair: relative speed v_j/v_i, relative clock τ_j/τ_i, relative orientation
// and chirality.
func AllPairsFeasible(robots []Robot) bool {
	for i := range robots {
		for j := i + 1; j < len(robots); j++ {
			if !pairFeasible(robots[i].Attrs, robots[j].Attrs) {
				return false
			}
		}
	}
	return true
}

// pairFeasible applies Theorem 4 to the frame of robot i: the relative
// attributes of j as seen from i.
func pairFeasible(a, b frame.Attributes) bool {
	rel := Relative(a, b)
	if rel.Tau != 1 || rel.V != 1 {
		return true
	}
	return rel.Chi == frame.CCW && rel.NormPhi() != 0
}

// Relative returns the attributes of robot b expressed in the frame of
// robot a (so that Theorem 4 and the two-robot machinery apply to the
// pair): speed b.V/a.V, clock b.Tau/a.Tau, orientation χ_a·(φ_b − φ_a), and
// chirality χ_a·χ_b.
func Relative(a, b frame.Attributes) frame.Attributes {
	phi := b.Phi - a.Phi
	if a.Chi == frame.CW {
		phi = -phi
	}
	return frame.Attributes{
		V:   b.V / a.V,
		Tau: b.Tau / a.Tau,
		Phi: phi,
		Chi: a.Chi * b.Chi, // χ_a·χ_b ∈ {+1, −1}
	}
}
