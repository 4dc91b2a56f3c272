package trajectory

import (
	"iter"
	"sync"

	"repro/internal/segment"
)

// window is how many segments a pump generates per resume. One window covers
// the median simulated rendezvous; a 256-segment window measured slower.
const window = 64

// maxIdlePumps bounds the free list of parked pumps; a pump released beyond
// it is stopped instead.
const maxIdlePumps = 64

// A pump runs sources on one iter.Pull coroutine that outlives them. Each
// resume generates the next window of the current source into buf; when the
// source returns, the pump yields its tail window and parks until it is
// handed the next source. Pumps are reused through a mutex-guarded free list
// rather than a sync.Pool: a pool may drop an entry at any GC, which would
// strand its parked goroutine.
type pump struct {
	buf   [window]segment.Seg
	n     int    // segments in buf
	src   Source // the source to start on the next resume
	ended bool   // the source returned; buf[:n] is its tail
	quit  bool   // the cursor closed mid-source: unwind the generator
	next  func() (struct{}, bool)
	stop  func()
}

var pumps struct {
	sync.Mutex
	idle []*pump
}

// getPump takes an idle pump, or starts a new one, primed to run src.
func getPump(src Source) *pump {
	pumps.Lock()
	var p *pump
	if n := len(pumps.idle); n > 0 {
		p = pumps.idle[n-1]
		pumps.idle[n-1] = nil
		pumps.idle = pumps.idle[:n-1]
	}
	pumps.Unlock()
	if p == nil {
		p = &pump{}
		p.next, p.stop = iter.Pull(p.run)
	}
	p.src, p.n, p.ended, p.quit = src, 0, false, false
	return p
}

// putPump parks an idle pump on the free list, or stops it if the list is
// full.
func putPump(p *pump) {
	pumps.Lock()
	if len(pumps.idle) < maxIdlePumps {
		pumps.idle = append(pumps.idle, p)
		p = nil
	}
	pumps.Unlock()
	if p != nil {
		p.stop()
	}
}

// run is the coroutine body: one source per iteration, yielding after every
// full window and once more when the source returns.
func (p *pump) run(yield func(struct{}) bool) {
	emit := func(s segment.Seg) bool {
		if p.quit {
			return false
		}
		p.buf[p.n] = s
		p.n++
		if p.n < window {
			return true
		}
		if !yield(struct{}{}) || p.quit {
			return false
		}
		p.n = 0
		return true
	}
	for {
		src := p.src
		p.src = nil
		src(emit)
		p.ended = true
		if !yield(struct{}{}) {
			return
		}
	}
}

// Cursor is a resumable pull cursor over a push Source: Next returns the
// source's segments one at a time, in order. The first Next takes a pump
// from the free list and starts the source on it; the generator then runs
// exactly once, suspended between 64-segment windows, so walking n segments
// costs n/64 coroutine switches and no allocation in steady state.
//
// Close ends the walk: a source still running is told to stop (its deferred
// cleanup runs) and the pump is returned for reuse. Every cursor that has
// called Next must be closed or exhausted, or its pump's goroutine stays
// parked. If the source panics, the panic surfaces from Next, the cursor
// reads as exhausted, and its pump is dropped.
type Cursor struct {
	src      Source
	p        *pump // nil before the first Next and once done
	head     int   // next unread index in p.buf[:p.n]
	consumed int   // segments handed out
	done     bool  // source exhausted or cursor closed
}

// Init readies a zero Cursor over src. Embedding a Cursor in a caller's
// walk state and calling Init avoids the separate heap allocation of
// NewCursor.
func (c *Cursor) Init(src Source) { c.src = src }

// NewCursor returns a cursor over src.
func NewCursor(src Source) *Cursor {
	c := &Cursor{}
	c.Init(src)
	return c
}

// Next returns the next segment of the source. ok is false once a finite
// source is exhausted.
func (c *Cursor) Next() (seg segment.Seg, ok bool) {
	for {
		if p := c.p; p != nil && c.head < p.n {
			seg = p.buf[c.head]
			c.head++
			c.consumed++
			return seg, true
		}
		if !c.resume() {
			return segment.Seg{}, false
		}
	}
}

// resume generates the next window, reporting false once the source has
// ended (the pump goes back to the free list then).
func (c *Cursor) resume() bool {
	p := c.p
	switch {
	case c.done:
		return false
	case p == nil:
		p = getPump(c.src)
	case p.ended:
		c.Close()
		return false
	}
	// Detach while the generator runs: if it panics, the cursor is left
	// done and the dead pump unreferenced.
	c.p, c.head, c.done = nil, 0, true
	p.next()
	c.p, c.done = p, false
	return true
}

// Consumed returns the number of segments handed out so far.
func (c *Cursor) Consumed() int { return c.consumed }

// Close stops the source if it is still running and returns the pump to the
// free list. Next after Close reports exhaustion.
func (c *Cursor) Close() {
	p := c.p
	c.p, c.head, c.done = nil, 0, true
	if p == nil {
		return
	}
	if !p.ended {
		p.quit = true
		p.next() // unwinds the generator
	}
	putPump(p)
}
