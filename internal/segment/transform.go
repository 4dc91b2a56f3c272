package segment

import (
	"repro/internal/geom"
)

// This file recovers exact circular geometry from transformed segments. A
// framed Seg models the reference-frame shift of the paper: a robot with
// attributes (v, τ, φ, χ) executing a local-frame segment S produces the
// global-frame motion
//
//	t ↦ Map(S(t / τ))
//
// with Map = x ↦ (vτ)·Rot(φ)·Diag(1,χ)·x + origin. Under such a similarity
// map the image of a circular arc is again a circular arc, which the contact
// detector exploits through ArcAt.

// ArcGeometry describes the exact circular motion of a (possibly
// transformed) arc in outer coordinates:
// position(t) = Center + Radius·e^{i·(StartAngle + Omega·t)} for outer-local
// time t in [0, Duration].
type ArcGeometry struct {
	Center     geom.Vec
	Radius     float64
	StartAngle float64
	Omega      float64 // signed angular velocity in outer time
	Duration   float64
}

// ArcAt returns the outer-frame circular geometry of the segment if it is an
// arc whose frame map (if any) is a similarity (uniform scale, possibly with
// reflection). ok is false otherwise — in particular for arcs that carry
// both a speed modulation and a frame transform, which the detector treats
// conservatively (matching the former doubly-wrapped representation, which
// the one-level arc unwrapping never recognised).
func ArcAt(s *Seg) (ArcGeometry, bool) {
	return ArcAtDur(s, s.Duration())
}

// ArcAtDur is ArcAt with the segment's duration supplied by the caller
// (dur must equal s.Duration()); the walk hot path has already computed it.
// The similarity test, scale and handedness of the map come precomputed
// from the segment's Frame, so per segment only the center, start angle and
// angular velocity are evaluated.
func ArcAtDur(s *Seg, dur float64) (ArcGeometry, bool) {
	if s.kind != KindArc {
		return ArcGeometry{}, false
	}
	if s.fr != nil && s.mod != 0 {
		return ArcGeometry{}, false
	}
	arc := s.arc()
	if s.fr == nil && s.mod == 0 {
		return ArcGeometry{
			Center:     arc.Center,
			Radius:     arc.Radius,
			StartAngle: arc.StartAngle,
			Omega:      arc.AngularVelocity(),
			Duration:   dur,
		}, true
	}
	// One transform present: the frame map, or a pure time dilation (which
	// acts as the identity map).
	f, ts := &identityFrame, s.mod
	if s.fr != nil {
		f, ts = s.fr, s.fr.tau
	}
	if !f.similar {
		return ArcGeometry{}, false
	}
	// Under x ↦ M x + b with M = s·Rot(α)·Diag(1, ±1), the circle
	// C + ρ·e^{iθ} maps to (M C + b) + sρ·e^{i(±θ+α)}: again a circular arc
	// with radius s·ρ, traversed at angular velocity ±ω/τ.
	center := f.m.Apply(arc.Center)
	radius := arc.Radius * f.scale
	if radius == 0 || dur == 0 {
		return ArcGeometry{Center: center, Radius: radius, StartAngle: 0, Omega: 0, Duration: dur}, true
	}
	// Recover the start angle from the exact image of the start point.
	start := s.Position(0).Sub(center)
	return ArcGeometry{
		Center:     center,
		Radius:     radius,
		StartAngle: start.Angle(),
		Omega:      f.hand * arc.AngularVelocity() / ts,
		Duration:   dur,
	}, true
}

// Position returns the point on the arc at local time t (clamped).
func (g ArcGeometry) Position(t float64) geom.Vec {
	if t < 0 {
		t = 0
	} else if t > g.Duration {
		t = g.Duration
	}
	return g.Center.Add(geom.Polar(g.Radius, g.StartAngle+g.Omega*t))
}
