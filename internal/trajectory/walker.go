package trajectory

import (
	"repro/internal/geom"
	"repro/internal/segment"
)

// Walker is a forward-only cursor over a Source holding a bounded window of
// state: only the current segment (plus the Cursor's 64-segment window) is
// retained. It walks trajectories with millions of segments without caching
// them all (contrast Path, which supports random access at the cost of
// remembering everything), and does per segment only what every caller
// needs: one Duration when the segment is pulled. The end point of the
// final segment is computed once, when a finite source runs out, and
// SegmentAt reports whether the walk moved, so a caller that derives state
// from the segment (gather's per-robot motion.Mover) refreshes it only when
// the segment changed.
type Walker struct {
	cur       Cursor
	seg       segment.Seg
	start     float64 // absolute start time of seg
	dur       float64 // seg.Duration()
	has       bool
	exhausted bool
	moved     bool // advanced since the last SegmentAt
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

// advance pulls the next segment. When a finite source runs out, the end
// point of its last segment is recorded so that the mover parks there.
func (w *Walker) advance() {
	if w.exhausted {
		return
	}
	w.moved = true
	seg, ok := w.cur.Next()
	if !ok {
		if w.has {
			w.finalPos = w.seg.End()
		}
		w.exhausted = true
		w.has = false
		w.cur.Close()
		return
	}
	if w.has {
		w.start += w.dur
	}
	w.seg = seg
	w.dur = seg.Duration()
	w.has = true
	w.count++
}

// SegmentAt returns the segment containing absolute time t, its absolute
// start time and its duration. The segment is the walker's own copy, valid
// until the next SegmentAt. Queries must be monotonically non-decreasing;
// earlier times within the current segment are fine, but times before it
// are answered with the current segment (the past has been discarded).
// Zero-duration segments are skipped. seg is nil once a finite source is
// exhausted and t is past its end.
//
// advanced reports whether the walk has moved since the previous call —
// onto a later segment, or off the end of the source — and is true on the
// first call.
func (w *Walker) SegmentAt(t float64) (seg *segment.Seg, start, dur float64, advanced bool) {
	for w.has && w.start+w.dur <= t {
		w.advance()
	}
	advanced, w.moved = w.moved, false
	if !w.has {
		return nil, 0, 0, advanced
	}
	return &w.seg, w.start, w.dur, advanced
}

// FinalPosition returns the last known position of an exhausted source: the
// end of its final segment. Valid only after SegmentAt has returned a nil
// segment.
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
