package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Start and End are
// offsets from the tracer's epoch; Parent is 0 for a root span; Req ties the
// spans of one request (or one pass, or one probed instance) together.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use.
type tracer struct {
	mu    sync.Mutex
	last  int64 // last id handed out
	spans []span
}

// newID reserves a span id, for a span whose children finish before it.
// A nil tracer records nothing, so untraced code paths call its methods
// unconditionally.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.last++
	return t.last
}

// addID records a finished span under an id from newID.
func (t *tracer) addID(id int64, name string, parent, req int64, start, end time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
}

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent, req int64, start, end time.Duration) int64 {
	id := t.newID()
	t.addID(id, name, parent, req, start, end)
	return id
}

// addProbe records the span of a layer measured by a separate call on the
// same input as its parent: only its duration is known, so it is laid at
// the parent's start.
func (t *tracer) addProbe(name string, parent, req int64, parentStart, d time.Duration) int64 {
	return t.add(name, parent, req, parentStart, parentStart+d)
}

// write dumps every span as one JSON line to path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that the union of its children's intervals covers.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the kids' intervals clipped to p.
func covered(p span, kids []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end time.Duration
	started := false
	var start time.Duration
	for _, x := range iv {
		switch {
		case !started:
			start, end, started = x[0], x[1], true
		case x[0] > end:
			total += end - start
			start, end = x[0], x[1]
		case x[1] > end:
			end = x[1]
		}
	}
	if started {
		total += end - start
	}
	return total
}

// selfByName collects the self times, in µs, of every span with the given
// name.
func selfByName(spans []span, self map[int64]time.Duration, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, us(self[s.ID]))
		}
	}
	return out
}

func durationsByName(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, us(s.dur()))
		}
	}
	return out
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
