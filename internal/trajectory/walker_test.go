package trajectory

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/segment"
)

func TestWalkerBasic(t *testing.T) {
	w := NewWalker(FromSlice([]segment.Seg{
		line(0, 0, 2, 0),                       // [0,2]
		segment.NewWait(geom.V(2, 0), 1).Seg(), // [2,3]
		line(2, 0, 2, 2),                       // [3,5]
	}))
	defer w.Close()

	seg, start, dur, advanced := w.SegmentAt(0.5)
	if seg == nil || start != 0 || dur != 2 || !advanced {
		t.Fatalf("SegmentAt(0.5): seg=%v start=%v dur=%v advanced=%v", seg, start, dur, advanced)
	}
	if got := seg.Position(0.5 - start); !got.ApproxEqual(geom.V(0.5, 0), 1e-12) {
		t.Errorf("position = %v", got)
	}

	// Advance into the wait.
	if _, _, _, advanced := w.SegmentAt(1.5); advanced {
		t.Error("SegmentAt(1.5) within the first segment reported advanced")
	}
	seg, start, dur, advanced = w.SegmentAt(2.5)
	if seg == nil || start != 2 || dur != 1 || !advanced {
		t.Fatalf("SegmentAt(2.5): seg=%v start=%v dur=%v advanced=%v", seg, start, dur, advanced)
	}
	if seg.Kind() != segment.KindWait {
		t.Errorf("SegmentAt(2.5) kind = %v, want wait", seg.Kind())
	}

	// Re-query within the same segment is allowed.
	if seg2, start2, _, advanced := w.SegmentAt(2.2); seg2 == nil || start2 != 2 || advanced {
		t.Error("re-query within current segment failed")
	}

	// Past the end: exhausted, final position available.
	if seg, _, _, advanced := w.SegmentAt(10); seg != nil || !advanced {
		t.Errorf("SegmentAt past end: seg=%v advanced=%v, want nil and advanced", seg, advanced)
	}
	if _, _, _, advanced := w.SegmentAt(11); advanced {
		t.Error("SegmentAt again past end reported advanced")
	}
	if got := w.FinalPosition(); !got.ApproxEqual(geom.V(2, 2), 1e-12) {
		t.Errorf("FinalPosition = %v, want (2,2)", got)
	}
	if w.Consumed() != 3 {
		t.Errorf("Consumed = %d, want 3", w.Consumed())
	}
}

func TestWalkerSkipsZeroDurationSegments(t *testing.T) {
	w := NewWalker(FromSlice([]segment.Seg{
		line(0, 0, 1, 0),
		segment.Wait{At: geom.V(1, 0)}.Seg(), // zero duration
		line(1, 0, 2, 0),
	}))
	defer w.Close()
	seg, start, _, _ := w.SegmentAt(1.0)
	if seg == nil {
		t.Fatal("no segment at t=1")
	}
	if start != 1 {
		t.Errorf("start = %v, want 1", start)
	}
	if l, isLine := seg.AsLine(); !isLine || l.To != geom.V(2, 0) {
		t.Errorf("segment = %#v, want second line", seg)
	}
}

func TestWalkerO1Memory(t *testing.T) {
	// The walker must consume exactly as many segments as needed, one at a
	// time, and hold no history.
	w := NewWalker(Repeat(func(i int) Source {
		from := geom.V(float64(i-1), 0)
		return FromSlice([]segment.Seg{segment.UnitLine(from, from.Add(geom.V(1, 0))).Seg()})
	}))
	defer w.Close()
	if seg, _, _, _ := w.SegmentAt(1000.5); seg == nil {
		t.Fatal("infinite source reported exhausted")
	}
	if c := w.Consumed(); c != 1001 {
		t.Errorf("Consumed = %d, want 1001", c)
	}
}

func TestWalkerEmptySource(t *testing.T) {
	w := NewWalker(FromSlice(nil))
	defer w.Close()
	if seg, _, _, _ := w.SegmentAt(0); seg != nil {
		t.Error("empty source reported a segment")
	}
	if got := w.FinalPosition(); got != geom.Zero {
		t.Errorf("FinalPosition = %v, want origin", got)
	}
}
