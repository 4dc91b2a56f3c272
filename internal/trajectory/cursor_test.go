package trajectory

import (
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/segment"
)

// counting returns an infinite source of unit lines whose i-th segment runs
// from (i,0) to (i+1,0), and a counter of generator invocations.
func counting(invocations *int) Source {
	return func(yield func(segment.Seg) bool) {
		*invocations++
		for i := 0; ; i++ {
			from := geom.V(float64(i), 0)
			if !yield(segment.UnitLine(from, from.Add(geom.V(1, 0))).Seg()) {
				return
			}
		}
	}
}

func TestCursorOrderAndExhaustion(t *testing.T) {
	segs := []segment.Seg{
		segment.UnitLine(geom.Zero, geom.V(1, 0)).Seg(),
		segment.NewWait(geom.V(1, 0), 2).Seg(),
		segment.UnitLine(geom.V(1, 0), geom.V(1, 1)).Seg(),
	}
	c := NewCursor(FromSlice(segs))
	defer c.Close()
	for i, want := range segs {
		got, ok := c.Next()
		if !ok || got != want {
			t.Fatalf("Next %d: ok=%v got=%#v", i, ok, got)
		}
	}
	if _, ok := c.Next(); ok {
		t.Error("Next after exhaustion reported a segment")
	}
	if _, ok := c.Next(); ok {
		t.Error("repeated Next after exhaustion reported a segment")
	}
	if c.Consumed() != len(segs) {
		t.Errorf("Consumed = %d, want %d", c.Consumed(), len(segs))
	}
}

// units returns a finite source of n unit lines, the i-th from (i,0) to
// (i+1,0).
func units(n int) Source {
	return func(yield func(segment.Seg) bool) {
		for i := 0; i < n; i++ {
			from := geom.V(float64(i), 0)
			if !yield(segment.UnitLine(from, from.Add(geom.V(1, 0))).Seg()) {
				return
			}
		}
	}
}

// walkInOrder pulls n segments and fails unless the i-th starts at (i,0).
func walkInOrder(t *testing.T, c *Cursor, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		seg, ok := c.Next()
		if !ok {
			t.Fatalf("Next %d: exhausted", i)
		}
		if got := seg.Start(); got != geom.V(float64(i), 0) {
			t.Fatalf("segment %d starts at %v, want (%d,0)", i, got, i)
		}
	}
}

// TestCursorFiniteWindowEdges: finite sources on both sides of the window
// boundaries arrive whole, in order, and then report exhaustion.
func TestCursorFiniteWindowEdges(t *testing.T) {
	for _, n := range []int{0, 1, window - 1, window, window + 1, 2 * window} {
		c := NewCursor(units(n))
		walkInOrder(t, c, n)
		if _, ok := c.Next(); ok {
			t.Errorf("n=%d: source not exhausted after all segments", n)
		}
		if c.Consumed() != n {
			t.Errorf("n=%d: Consumed = %d", n, c.Consumed())
		}
		c.Close()
	}
}

// TestCursorRestartSkip: resuming a cursor across window refills never
// restarts the generator and skips what it already produced — each cursor
// runs its source exactly once, however many windows it walks, and hands
// out the sequence in order with no duplicates or gaps.
func TestCursorRestartSkip(t *testing.T) {
	invocations := 0
	for k, n := range []int{1, window, window + 1, 5*window + 3} {
		c := NewCursor(counting(&invocations))
		walkInOrder(t, c, n)
		c.Close()
		if invocations != k+1 {
			t.Fatalf("after %d cursors the generator ran %d times", k+1, invocations)
		}
	}
}

// TestCursorStreamingEscape: a long walk over an infinite source stays on
// the cursor's one generator run (no hand-off to another producer), delivers
// the exact sequence, and is exhausted once closed mid-window.
func TestCursorStreamingEscape(t *testing.T) {
	invocations := 0
	c := NewCursor(counting(&invocations))
	walkInOrder(t, c, 20_000)
	c.Close()
	if _, ok := c.Next(); ok {
		t.Error("Next after Close reported a segment")
	}
	if invocations != 1 {
		t.Errorf("the generator ran %d times over one walk, want 1", invocations)
	}
}

// TestCursorCloseMidWindow: Close stops a running generator (its deferred
// cleanup runs before Close returns) and the next cursor reuses the pump.
func TestCursorCloseMidWindow(t *testing.T) {
	cleaned := false
	src := Source(func(yield func(segment.Seg) bool) {
		defer func() { cleaned = true }()
		invocations := 0
		counting(&invocations)(yield)
	})
	c := NewCursor(src)
	walkInOrder(t, c, window+10)
	p := c.p
	c.Close()
	if !cleaned {
		t.Fatal("Close returned before the generator's deferred cleanup ran")
	}
	next := NewCursor(units(3))
	defer next.Close()
	walkInOrder(t, next, 3)
	if next.p != p {
		t.Error("the next cursor did not reuse the closed cursor's pump")
	}
}

// TestCursorSourcePanic: a panic inside the generator surfaces from the Next
// that needs the window being generated, leaves the cursor exhausted, and
// does not poison later cursors.
func TestCursorSourcePanic(t *testing.T) {
	src := Source(func(yield func(segment.Seg) bool) {
		units(100)(yield)
		panic("generator failed")
	})
	c := NewCursor(src)
	walkInOrder(t, c, window)
	func() {
		defer func() {
			if r := recover(); r != "generator failed" {
				t.Errorf("recovered %v, want the generator's panic", r)
			}
		}()
		c.Next()
		t.Error("Next returned past the panicking generator")
	}()
	if _, ok := c.Next(); ok {
		t.Error("Next after the panic reported a segment")
	}
	c.Close()
	for range 3 {
		next := NewCursor(units(window + 1))
		walkInOrder(t, next, window+1)
		next.Close()
	}
}

// TestCursorConcurrent runs cursors on eight goroutines at once (meaningful
// under -race): pumps move between goroutines through the free list.
func TestCursorConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 50 {
				n := (g*37 + k*11) % (3 * window)
				c := NewCursor(units(n + 1))
				for i := 0; i <= n/(k%3+1); i++ {
					seg, ok := c.Next()
					if !ok || seg.Start() != geom.V(float64(i), 0) {
						t.Errorf("goroutine %d cursor %d: segment %d wrong (ok=%v)", g, k, i, ok)
						break
					}
				}
				c.Close()
			}
		}()
	}
	wg.Wait()
}

// TestCursorEmptySource: an empty source is exhausted immediately.
func TestCursorEmptySource(t *testing.T) {
	c := NewCursor(FromSlice(nil))
	defer c.Close()
	if _, ok := c.Next(); ok {
		t.Error("empty source reported a segment")
	}
}
