package trajectory

import (
	"repro/internal/geom"
	"repro/internal/segment"
)

// Walker is a forward-only cursor over a Source holding a bounded window of
// state: only the current segment (plus the Cursor's 64-segment window) is
// retained. The simulator's helpers use it to walk trajectories with
// millions of segments without caching them all (contrast Path, which
// supports random access at the cost of remembering everything).
type Walker struct {
	cur       Cursor
	seg       segment.Seg
	start     float64 // absolute start time of seg
	has       bool
	exhausted bool
	finalPos  geom.Vec
	count     int
}

// NewWalker starts walking src from time 0.
func NewWalker(src Source) *Walker {
	w := &Walker{}
	w.cur.Init(src)
	w.advance()
	return w
}

// advance pulls the next segment, recording the end position of the current
// one so that a finite source leaves the mover parked at its final point.
func (w *Walker) advance() {
	if w.exhausted {
		return
	}
	var prevEnd float64
	if w.has {
		prevEnd = w.start + w.seg.Duration()
		w.finalPos = w.seg.End()
	}
	seg, ok := w.cur.Next()
	if !ok {
		w.exhausted = true
		w.has = false
		w.cur.Close()
		return
	}
	w.seg = seg
	w.start = prevEnd
	w.has = true
	w.count++
}

// SegmentAt returns the segment containing absolute time t and its absolute
// start time. Queries must be monotonically non-decreasing; earlier times
// within the current segment are fine, but times before it are answered with
// the current segment (the past has been discarded). Zero-duration segments
// are skipped. ok is false once a finite source is exhausted and t is past
// its end.
func (w *Walker) SegmentAt(t float64) (seg segment.Seg, start float64, ok bool) {
	for w.has && w.start+w.seg.Duration() <= t {
		w.advance()
	}
	if !w.has {
		return segment.Seg{}, 0, false
	}
	return w.seg, w.start, true
}

// FinalPosition returns the last known position of an exhausted source: the
// end of its final segment. Valid only after SegmentAt has returned !ok.
func (w *Walker) FinalPosition() geom.Vec { return w.finalPos }

// Consumed returns the number of segments pulled so far.
func (w *Walker) Consumed() int { return w.count }

// Close releases the underlying cursor.
func (w *Walker) Close() {
	if !w.exhausted {
		w.exhausted = true
		w.has = false
		w.cur.Close()
	}
}
