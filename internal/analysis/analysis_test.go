package analysis

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/algo"
	"repro/internal/geom"
	"repro/internal/segment"
	"repro/internal/trajectory"
)

func TestDistanceToLineSegment(t *testing.T) {
	l := segment.UnitLine(geom.V(0, 0), geom.V(2, 0)).Seg()
	tests := []struct {
		p    geom.Vec
		want float64
	}{
		{geom.V(1, 1), 1},      // above the middle
		{geom.V(-1, 0), 1},     // beyond the start
		{geom.V(3, 0), 1},      // beyond the end
		{geom.V(1, 0), 0},      // on the segment
		{geom.V(-3, 4), 5},     // diagonal to the start
		{geom.V(2, -0.5), 0.5}, // below the end
		{geom.V(0.5, -2), 2},   // below the middle
	}
	for _, tt := range tests {
		if got := DistanceToSegment(tt.p, l); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("dist(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestDistanceToWait(t *testing.T) {
	w := segment.NewWait(geom.V(1, 1), 5).Seg()
	if got := DistanceToSegment(geom.V(4, 5), w); math.Abs(got-5) > 1e-12 {
		t.Errorf("dist = %v, want 5", got)
	}
}

func TestDistanceToFullCircle(t *testing.T) {
	a := segment.FullCircle(geom.Zero, 2, 0).Seg()
	tests := []struct {
		p    geom.Vec
		want float64
	}{
		{geom.V(3, 0), 1},
		{geom.V(0.5, 0), 1.5},
		{geom.Zero, 2},
		{geom.V(0, -2), 0},
	}
	for _, tt := range tests {
		if got := DistanceToSegment(tt.p, a); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("dist(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestDistanceToPartialArc(t *testing.T) {
	// Quarter arc from angle 0 to π/2 on the unit circle.
	a := segment.NewArc(geom.Zero, 1, 0, math.Pi/2, 1).Seg()
	tests := []struct {
		p    geom.Vec
		want float64
	}{
		{geom.V(2, 0), 1},                 // radially aligned with the start
		{geom.Polar(3, math.Pi/4), 2},     // radially aligned inside the sweep
		{geom.V(0, -1), math.Sqrt2},       // opposite side: nearest endpoint (1,0)
		{geom.V(-2, 0), math.Sqrt(4 + 1)}, // nearest endpoint (0,1): dist = √5
	}
	for _, tt := range tests {
		if got := DistanceToSegment(tt.p, a); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("dist(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestDistanceToClockwiseArc(t *testing.T) {
	// Clockwise quarter arc from angle 0 to −π/2.
	a := segment.NewArc(geom.Zero, 1, 0, -math.Pi/2, 1).Seg()
	// Point at angle −π/4 is inside the sweep.
	if got := DistanceToSegment(geom.Polar(2, -math.Pi/4), a); math.Abs(got-1) > 1e-9 {
		t.Errorf("dist inside sweep = %v, want 1", got)
	}
	// Point at angle +π/2 is outside: nearest endpoint is (1, 0) (start)
	// or (0,−1) (end); from (0,2): dist to (1,0) = √5, to (0,−1) = 3.
	if got := DistanceToSegment(geom.V(0, 2), a); math.Abs(got-math.Sqrt(5)) > 1e-9 {
		t.Errorf("dist outside sweep = %v, want √5", got)
	}
}

// TestDistanceToSegmentAgainstSampling cross-validates the closed forms on
// random points against dense sampling.
func TestDistanceToSegmentAgainstSampling(t *testing.T) {
	segs := []segment.Seg{
		segment.UnitLine(geom.V(-1, 2), geom.V(3, -1)).Seg(),
		segment.NewArc(geom.V(1, 1), 1.7, 0.4, 2.0, 1).Seg(),
		segment.NewArc(geom.V(-2, 0), 0.9, 1.0, -2.5, 1).Seg(),
		segment.FullCircle(geom.V(0.5, 0.5), 2.2, 1.1).Seg(),
	}
	f := func(px, py float64) bool {
		px = math.Mod(px, 8)
		py = math.Mod(py, 8)
		if math.IsNaN(px) || math.IsNaN(py) {
			return true
		}
		p := geom.V(px, py)
		for _, s := range segs {
			exact := DistanceToSegment(p, s)
			approx := sampledDistance(p, s)
			// Sampling overestimates by at most the chord spacing.
			if exact > approx+1e-9 || approx > exact+0.05 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDistanceToTransformed(t *testing.T) {
	m := geom.Affine{M: geom.FrameMatrix(0.5, 1.2, -1), T: geom.V(2, -1)}
	// Transformed line.
	trLineSeg := segment.UnitLine(geom.V(0, 0), geom.V(2, 0)).Seg()
	trLineFrame := segment.NewFrame(m, 1.5)
	trLine := trLineFrame.Apply(&trLineSeg)
	p := geom.V(1, 1)
	if got, want := DistanceToSegment(p, trLine), sampledDistance(p, trLine); math.Abs(got-want) > 0.05 {
		t.Errorf("transformed line dist = %v, sampled %v", got, want)
	}
	// Transformed arc.
	trArcSeg := segment.NewArc(geom.V(1, 0), 1, 0, 2, 1).Seg()
	trArcFrame := segment.NewFrame(m, 2)
	trArc := trArcFrame.Apply(&trArcSeg)
	if got, want := DistanceToSegment(p, trArc), sampledDistance(p, trArc); math.Abs(got-want) > 0.05 {
		t.Errorf("transformed arc dist = %v, sampled %v", got, want)
	}
}

func TestDistanceToPath(t *testing.T) {
	src := algo.SearchCircle(1) // out to (1,0), unit circle, back
	// The origin lies on the path.
	if got := DistanceToPath(geom.Zero, src); got > 1e-12 {
		t.Errorf("origin dist = %v, want 0", got)
	}
	// A point 2 away from the circle.
	if got := DistanceToPath(geom.V(3, 0), algo.SearchCircle(1)); math.Abs(got-2) > 1e-12 {
		t.Errorf("dist = %v, want 2", got)
	}
}

// TestSearchAnnulusCoverage is the empirical Lemma 1: SearchAnnulus brings
// the robot within ρ of every annulus point.
func TestSearchAnnulusCoverage(t *testing.T) {
	d1, d2, rho := 0.5, 1.0, 0.0625
	rep, err := CoverAnnulus(func() trajectory.Source {
		return algo.SearchAnnulus(d1, d2, rho)
	}, d1, d2, rho, 12, 24)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FullyCovered() {
		t.Errorf("annulus not covered: %d/%d, worst gap %v at %v",
			rep.Covered, rep.Queries, rep.WorstGap, rep.WorstPoint)
	}
}

// TestSearchRoundCoverage checks each sub-round of Search(k) covers its
// designed annulus at its designed granularity (the invariant Lemma 1 uses).
func TestSearchRoundCoverage(t *testing.T) {
	for k := 1; k <= 3; k++ {
		for j := 0; j <= 2*k-1; j++ {
			delta, rho := algo.RoundAnnulus(j, k)
			rep, err := CoverAnnulus(func() trajectory.Source {
				return algo.SearchRound(k)
			}, delta, 2*delta, rho, 8, 16)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.FullyCovered() {
				t.Errorf("k=%d j=%d: annulus [%v, %v] at ρ=%v not covered (worst %v)",
					k, j, delta, 2*delta, rho, rep.WorstGap)
			}
		}
	}
}

func TestCoverAnnulusDetectsGaps(t *testing.T) {
	// A single circle cannot cover a wide annulus at fine granularity.
	rep, err := CoverAnnulus(func() trajectory.Source {
		return algo.SearchCircle(1)
	}, 0.5, 2, 0.01, 10, 16)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FullyCovered() {
		t.Error("gap not detected")
	}
	if rep.WorstGap < 0.4 {
		t.Errorf("worst gap %v suspiciously small", rep.WorstGap)
	}
}

func TestCoverAnnulusValidation(t *testing.T) {
	src := func() trajectory.Source { return algo.SearchCircle(1) }
	if _, err := CoverAnnulus(src, 1, 0.5, 0.1, 4, 8); err == nil {
		t.Error("inverted radii accepted")
	}
	if _, err := CoverAnnulus(src, 0.5, 1, 0, 4, 8); err == nil {
		t.Error("zero rho accepted")
	}
	if _, err := CoverAnnulus(src, 0.5, 1, 0.1, 0, 8); err == nil {
		t.Error("coarse grid accepted")
	}
}

func TestCompetitiveRatio(t *testing.T) {
	if got := OfflineOptimumSearch(5, 1); got != 4 {
		t.Errorf("offline optimum = %v, want 4", got)
	}
	if got := OfflineOptimumSearch(1, 2); got != 0 {
		t.Errorf("visible target optimum = %v, want 0", got)
	}
	if got := CompetitiveRatio(40, 5, 1); math.Abs(got-10) > 1e-12 {
		t.Errorf("ratio = %v, want 10", got)
	}
	if !math.IsInf(CompetitiveRatio(40, 1, 2), 1) {
		t.Error("visible-target ratio should be +Inf")
	}
}
