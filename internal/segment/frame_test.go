package segment

import (
	"math"
	"testing"
	"unsafe"

	"repro/internal/geom"
)

// TestSegSize pins the size of a Seg: the payload, the modulation dilation
// and one Frame pointer. Every layer of a trajectory yields Segs by value,
// so growing the struct slows every walk.
func TestSegSize(t *testing.T) {
	if got := unsafe.Sizeof(Seg{}); got > 88 {
		t.Errorf("unsafe.Sizeof(Seg{}) = %d bytes, want ≤ 88", got)
	}
}

// oracleSeg evaluates a segment the way Seg did when every segment carried
// its own copy of the frame map, clock dilation and operator norm: each
// quantity below is recomputed from the map per call, in the original
// operation order. FuzzFrameArcAt checks the cached Frame against it.
type oracleSeg struct {
	raw    Seg // unframed, unmodulated payload
	framed bool
	m      geom.Affine
	tau    float64
	mod    float64
}

func (o *oracleSeg) duration() float64 {
	d := o.raw.Duration()
	if o.framed {
		d *= o.tau
	}
	if o.mod != 0 {
		d *= o.mod
	}
	return d
}

func (o *oracleSeg) position(t float64) geom.Vec {
	if o.mod != 0 {
		t /= o.mod
	}
	if o.framed {
		t /= o.tau
	}
	p := o.raw.Position(t)
	if o.framed {
		p = o.m.Apply(p)
	}
	return p
}

func (o *oracleSeg) maxSpeed() float64 {
	v := o.raw.MaxSpeed()
	if o.framed {
		v = v * o.m.M.OperatorNorm() / o.tau
	}
	if o.mod != 0 {
		v /= o.mod
	}
	return v
}

func (o *oracleSeg) pathLength() float64 {
	l := o.raw.PathLength()
	if o.framed {
		l *= o.m.M.OperatorNorm()
	}
	return l
}

func (o *oracleSeg) arcAtDur(dur float64) (ArcGeometry, bool) {
	if o.raw.kind != KindArc {
		return ArcGeometry{}, false
	}
	if o.framed && o.mod != 0 {
		return ArcGeometry{}, false
	}
	arc := o.raw.arc()
	if !o.framed && o.mod == 0 {
		return ArcGeometry{
			Center:     arc.Center,
			Radius:     arc.Radius,
			StartAngle: arc.StartAngle,
			Omega:      arc.AngularVelocity(),
			Duration:   dur,
		}, true
	}
	m, ts := o.m, o.tau
	if !o.framed {
		m, ts = geom.IdentityAffine, o.mod
	}
	c1 := geom.V(m.M.A, m.M.C)
	c2 := geom.V(m.M.B, m.M.D)
	n1, n2 := c1.Norm(), c2.Norm()
	const eps = 1e-12
	avg := (n1 + n2) / 2
	if avg == 0 {
		return ArcGeometry{}, false
	}
	if diff := n1 - n2; diff > eps*avg || diff < -eps*avg {
		return ArcGeometry{}, false
	}
	if dot := c1.Dot(c2); dot > eps*avg*avg || dot < -eps*avg*avg {
		return ArcGeometry{}, false
	}
	center := m.Apply(arc.Center)
	scale := c1.Norm()
	radius := arc.Radius * scale
	if radius == 0 || dur == 0 {
		return ArcGeometry{Center: center, Radius: radius, StartAngle: 0, Omega: 0, Duration: dur}, true
	}
	start := o.position(0).Sub(center)
	omegaInner := arc.AngularVelocity()
	handedness := 1.0
	if m.M.Det() < 0 {
		handedness = -1
	}
	return ArcGeometry{
		Center:     center,
		Radius:     radius,
		StartAngle: start.Angle(),
		Omega:      handedness * omegaInner / ts,
		Duration:   dur,
	}, true
}

// sameBits reports bit-for-bit equality (NaN payloads included).
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameGeometry(a, b ArcGeometry) bool {
	return sameBits(a.Center.X, b.Center.X) && sameBits(a.Center.Y, b.Center.Y) &&
		sameBits(a.Radius, b.Radius) && sameBits(a.StartAngle, b.StartAngle) &&
		sameBits(a.Omega, b.Omega) && sameBits(a.Duration, b.Duration)
}

// FuzzFrameArcAt checks that a segment evaluated through its cached Frame —
// ArcAtDur, Duration, PathLength, MaxSpeed and DurationAndLength — equals
// the per-segment formulas of oracleSeg bit for bit, for arcs and lines
// under random similarity and general (sheared) maps, with or without a
// frame and with or without a speed-modulation dilation. A framed and
// modulated arc must stay unrecognised (the conservative fallback).
func FuzzFrameArcAt(f *testing.F) {
	// Arguments: arc center, radius, start angle, sweep and speed (a line
	// runs from the center to (radius, start angle)); the map (scale a and
	// angle b for a similarity, the raw matrix a, b, c, d otherwise) and
	// its translation; the clock dilation; the modulation (0 = none); and
	// the flags framed, similarity, reflect and line.
	f.Add(2.0, 0.0, 1.5, 0.3, 2.2, 1.0, 0.7, 1.1, 0.0, 0.0, 3.0, -1.0, 1.0, 0.0, true, true, false, false)
	f.Add(2.0, 0.0, 1.5, 0.3, 2.2, 1.0, 0.7, 1.1, 0.0, 0.0, 3.0, -1.0, 1.0, 0.0, true, true, true, false)
	f.Add(1.0, 1.0, 2.0, 0.0, 3.0, 1.5, 0.4, 5.0, 0.0, 0.0, -2.0, 2.0, 0.5, 0.0, true, true, true, false)
	f.Add(0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, true, false, false, false)
	f.Add(0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 2.5, false, false, false, false)
	f.Add(0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.3, 0.2, 0.0, 0.0, 0.0, 0.0, 2.5, 0.8, true, true, false, false)
	f.Add(1.0, 2.0, 3.0, 0.5, 1.5, 2.0, 0.8, 2.1, 0.0, 0.0, 5.0, 5.0, 1.7, 0.0, true, true, true, true)
	f.Add(1.0, 2.0, 0.0, 0.5, 1.5, 2.0, 0.8, 2.1, 0.0, 0.0, 5.0, 5.0, 1.7, 0.0, true, true, false, false)
	// A similarity only to within the 1e-12 tolerance (column norms differ
	// in the last bits), a skew with equal column norms, a stretch, and
	// the zero map.
	f.Add(1.0, 1.0, 2.0, 0.3, 2.0, 1.0, 1.0, 0.0, 0.0, 1.0000000000000009, 0.5, 0.5, 1.0, 0.0, true, false, false, false)
	f.Add(1.0, 1.0, 2.0, 0.3, 2.0, 1.0, 1.0, -0.6, 0.0, 0.8, 0.5, 0.5, 1.0, 0.0, true, false, false, false)
	f.Add(1.0, 1.0, 2.0, 0.3, 2.0, 1.0, 2.0, 0.0, 0.0, 1.0, 0.5, 0.5, 1.0, 0.0, true, false, false, false)
	f.Add(1.0, 1.0, 2.0, 0.3, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.5, 1.0, 0.0, true, false, false, false)
	f.Fuzz(func(t *testing.T, cx, cy, radius, start, sweep, speed, a, b, c, d, tx, ty, tau, mod float64,
		framed, similarity, reflect, line bool) {
		for _, v := range []float64{cx, cy, radius, start, sweep, speed, a, b, c, d, tx, ty, tau, mod} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		if radius < 0 || speed <= 0 || tau <= 0 || mod < 0 {
			return
		}
		raw := NewArc(geom.V(cx, cy), radius, start, sweep, speed).Seg()
		if line {
			raw = NewLine(geom.V(cx, cy), geom.V(radius, start), speed).Seg()
		}
		var m geom.Affine
		if similarity {
			chi := 1
			if reflect {
				chi = -1
			}
			m = geom.Affine{M: geom.FrameMatrix(a, b, chi), T: geom.V(tx, ty)}
		} else {
			m = geom.Affine{M: geom.Mat{A: a, B: b, C: c, D: d}, T: geom.V(tx, ty)}
		}

		o := oracleSeg{raw: raw, framed: framed, m: m, tau: tau, mod: mod}
		fr := NewFrame(m, tau)
		s := raw
		if framed {
			s = fr.Apply(&raw)
		}
		if mod != 0 {
			s = s.Dilated(mod)
		}

		dur := s.Duration()
		if want := o.duration(); !sameBits(dur, want) {
			t.Errorf("Duration = %v, oracle %v", dur, want)
		}
		if got, want := s.PathLength(), o.pathLength(); !sameBits(got, want) {
			t.Errorf("PathLength = %v, oracle %v", got, want)
		}
		if got, want := s.MaxSpeed(), o.maxSpeed(); !sameBits(got, want) {
			t.Errorf("MaxSpeed = %v, oracle %v", got, want)
		}
		if gd, gl := s.DurationAndLength(); !sameBits(gd, dur) || !sameBits(gl, o.pathLength()) {
			t.Errorf("DurationAndLength = %v, %v; oracle %v, %v", gd, gl, dur, o.pathLength())
		}
		g, ok := ArcAtDur(&s, dur)
		want, wantOK := o.arcAtDur(dur)
		if ok != wantOK || (ok && !sameGeometry(g, want)) {
			t.Errorf("ArcAtDur = %+v, %v; oracle %+v, %v", g, ok, want, wantOK)
		}
		if ok && framed && mod != 0 {
			t.Error("ArcAtDur recognised a framed and modulated arc")
		}
	})
}
