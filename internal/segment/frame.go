package segment

import (
	"fmt"

	"repro/internal/geom"
)

// Frame is a robot's local→global frame transform: the affine map m and the
// clock dilation tau of the paper's reference-frame shift. A robot's hidden
// attributes fix one Frame for the whole run, so everything a segment
// evaluation derives from the map alone is computed here once rather than
// once per segment: the operator norm ‖m.M‖₂ that scales path lengths and
// speed bounds, and the similarity decomposition ArcAtDur needs to map arcs
// onto arcs. A framed Seg refers to its Frame by pointer (Apply); the Frame
// must outlive the segments that refer to it, which the garbage collector
// guarantees. All cached quantities are computed by the same float64
// operations ArcAtDur and the Seg methods used per segment, so caching them
// changes no result bit.
type Frame struct {
	m      geom.Affine
	tau    float64
	opNorm float64 // ‖m.M‖₂

	// Similarity decomposition of m.M (see ArcAtDur): similar reports that
	// the columns are orthogonal with equal norms to within 1e-12; scale is
	// the first column's norm and hand the sign of the determinant.
	similar bool
	scale   float64
	hand    float64
}

// identityFrame is the map of a pure speed-modulation dilation, which acts
// on an unframed segment as the identity (ArcAtDur).
var identityFrame = NewFrame(geom.IdentityAffine, 1)

// NewFrame builds the Frame of the affine map m and time dilation timeScale.
// It panics on a non-positive time scale.
func NewFrame(m geom.Affine, timeScale float64) Frame {
	if timeScale <= 0 {
		panic(fmt.Sprintf("segment: NewFrame with non-positive time scale %v", timeScale))
	}
	f := Frame{m: m, tau: timeScale, opNorm: m.M.OperatorNorm()}
	// Similarity test: columns of the linear part orthogonal with equal
	// norms.
	c1 := geom.V(m.M.A, m.M.C)
	c2 := geom.V(m.M.B, m.M.D)
	n1, n2 := c1.Norm(), c2.Norm()
	const eps = 1e-12
	avg := (n1 + n2) / 2
	diff := n1 - n2
	dot := c1.Dot(c2)
	f.similar = avg != 0 &&
		!(diff > eps*avg || diff < -eps*avg) &&
		!(dot > eps*avg*avg || dot < -eps*avg*avg)
	f.scale = n1
	f.hand = 1
	if m.M.Det() < 0 {
		f.hand = -1
	}
	return f
}

// Apply returns the segment under the frame: a copy of s that refers to f,
// so f must not be modified while the copy is in use. It panics when a frame
// transform is already present or the segment carries a time dilation
// (frames are applied exactly once, at the outermost trajectory layer,
// inside any speed modulation).
func (f *Frame) Apply(s *Seg) Seg {
	if s.fr != nil {
		panic("segment: Seg already carries a frame transform")
	}
	if s.mod != 0 {
		panic("segment: frame transform under an existing time dilation")
	}
	out := *s
	out.fr = f
	return out
}

// Scale maps a raw (payload-local) duration and path length through the
// frame: dur·tau and length·opNorm, the same multiplications — in the same
// order — DurationAndLength applies to a framed, unmodulated segment.
func (f *Frame) Scale(dur, length float64) (float64, float64) {
	return dur * f.tau, length * f.opNorm
}
