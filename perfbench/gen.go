package main

import (
	"math"
	"strconv"

	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/sampler"
	"repro/internal/sim"
)

// Every input is a pure function of the workload seed and its index in its
// list, so the lists are fixed and unbounded without being stored: request i
// of a run is the same on every run with that seed. The inputs other than
// serve-cold's requests come from splitmix64 streams keyed by (seed, stream,
// index).
const (
	streamHotPick = 2 // which working-set entry request i asks for
	streamWarm    = 4 // serve-cold warm-start records
	streamCut     = 5 // instances of the horizon-cut probe
)

// programID and program are the algorithm every request runs: the daemon's
// default, Algorithm 4 (cumulative search).
var programID, program, _ = experiments.GridAlgorithm("search")

// The request mix follows cmd/loadcheck, the repository's recorded client
// traffic: point rendezvous queries at r = 0.25 with displacements of 1 to 3
// and no horizon, so the daemon picks its default. loadcheck sends one
// request in twenty to another endpoint (/v1/sweep); here that share goes to
// /v1/search, the other point endpoint. README.md, "Request mix", gives the
// source of each value.
const (
	radius      = 0.25
	searchShare = 1.0 / 20
	dMin, dMax  = 1.0, 3.0
	vMin, vMax  = 0.25, 0.75 // serve-cold speeds: the v axis of loadcheck's /v1/sweep
)

// searchHorizon is the daemon's default search horizon (defaultSearchHorizon
// in cmd/rvserved). Every reply echoes its horizon, and verify checks it.
const searchHorizon = 1e5

// hotSet is the serve-hot working set: loadcheck's point queries, the speeds
// 0.2, 0.3, ..., 0.8 at displacements (1, 0), (2, 0) and (3, 0) with the
// other attributes at the daemon's defaults, then a search for a target at
// each of those displacements.
var hotSet = func() []query {
	var set []query
	for dx := dMin; dx <= dMax; dx++ {
		for v := 2; v <= 8; v++ {
			set = append(set, query{v: float64(v) / 10, chi: 1, dx: dx})
		}
	}
	for dx := dMin; dx <= dMax; dx++ {
		set = append(set, query{search: true, x: dx})
	}
	return set
}()

// hotSearches is the number of searches at the end of hotSet.
const hotSearches = 3

// passOps is the number of requests in one pass of a serve workload.
const passOps = 1024

// draw is a splitmix64 stream keyed by (seed, stream, index).
type draw struct{ s uint64 }

func newDraw(seed int64, stream uint64, index int64) draw {
	d := draw{s: uint64(seed)}
	d.s = d.next() ^ stream
	d.s = d.next() ^ uint64(index)
	return d
}

func (d *draw) next() uint64 {
	d.s += 0x9E3779B97F4A7C15
	z := d.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// float returns a uniform draw in [0, 1).
func (d *draw) float() float64 { return float64(d.next()>>11) / (1 << 53) }

// at is float under the dimension-addressed signature newQuery reads: the
// stream hands out its draws in the order the dimensions are read.
func (d *draw) at(int) float64 { return d.float() }

// coldSource draws the serve-cold requests as a Latin hypercube over each
// pass: in every pass of passOps requests each dimension (search or not,
// distance, direction, speed, orientation, chirality) visits each of its
// passOps strata once. A rare long walk costs a hundred typical ones, so
// with independent draws the number of long walks in a pass, and with it the
// pass time, would vary from pass to pass and from seed to seed.
var coldSource = sampler.New(sampler.Stratified, passOps)

// query is one point request: a rendezvous instance or a search for a
// static target.
type query struct {
	search bool
	// oriented marks a rendezvous that sends its orientation φ and
	// chirality χ; loadcheck's queries leave them at the defaults 0 and +1.
	oriented bool
	v, phi   float64
	chi      int
	dx, dy   float64 // rendezvous displacement
	x, y     float64 // search target
}

// newQuery draws a serve-cold request from u, the uniform draw of each
// dimension: one time in twenty a search for a target at distance [1, 3] in
// any direction, else a rendezvous at such a displacement.
func newQuery(u func(dim int) float64) query {
	if u(0) < searchShare {
		t, a := dMin+(dMax-dMin)*u(1), 2*math.Pi*u(2)
		return query{search: true, x: t * math.Cos(a), y: t * math.Sin(a)}
	}
	return rendezvousQuery(u, dMin, dMax)
}

// rendezvousQuery draws a rendezvous with speed v ∈ [0.25, 0.75], any
// orientation φ and chirality χ (the attributes the robots do not know), and
// a displacement of length [lo, hi) in any direction.
func rendezvousQuery(u func(dim int) float64, lo, hi float64) query {
	n, a := lo+(hi-lo)*u(1), 2*math.Pi*u(2)
	q := query{oriented: true, v: vMin + (vMax-vMin)*u(3), phi: 2 * math.Pi * u(4), chi: 1}
	if u(5) < 0.5 {
		q.chi = -1
	}
	q.dx, q.dy = n*math.Cos(a), n*math.Sin(a)
	return q
}

// hotPick is the working-set entry serve-hot request i asks for: a search
// one time in twenty, else a rendezvous, each uniform over its part of the
// set.
func hotPick(seed int64, i int64) int {
	d := newDraw(seed, streamHotPick, i)
	rv := uint64(len(hotSet) - hotSearches)
	if d.float() < searchShare {
		return int(rv + d.next()%hotSearches)
	}
	return int(d.next() % rv)
}

// coldQuery is serve-cold request i: a fresh instance every time.
func coldQuery(seed int64, i int64) query { return newQuery(coldSource.Draws(seed, int(i)).Float64) }

// cutQuery is instance k of the horizon-cut probe: a serve-cold rendezvous
// at a displacement of [0.5, 1), shorter than any request's.
func cutQuery(seed int64, k int64) query {
	d := newDraw(seed, streamCut, k)
	return rendezvousQuery(d.at, 0.5, dMin)
}

// warmTarget is the search target of warm-start record k. Its distance
// [3.25, 4] lies outside every request's, so no request can hit it.
func warmTarget(seed int64, k int) geom.Vec {
	d := newDraw(seed, streamWarm, int64(k))
	return geom.Polar(3.25+0.75*d.float(), 2*math.Pi*d.float())
}

func (q query) path() string {
	if q.search {
		return "/v1/search"
	}
	return "/v1/rendezvous"
}

// body is the JSON request. Floats are written in shortest round-trip form,
// so the daemon decodes exactly the values the reference uses. No horizon is
// sent: the daemon picks its default, as it does for loadcheck.
func (q query) body() string {
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	switch {
	case q.search:
		return `{"x":` + f(q.x) + `,"y":` + f(q.y) + `,"r":` + f(radius) + `}`
	case !q.oriented:
		return `{"v":` + f(q.v) + `,"dx":` + f(q.dx) + `,"dy":` + f(q.dy) + `,"r":` + f(radius) + `}`
	}
	return `{"v":` + f(q.v) + `,"phi":` + f(q.phi) + `,"chi":` + strconv.Itoa(q.chi) +
		`,"dx":` + f(q.dx) + `,"dy":` + f(q.dy) + `,"r":` + f(radius) + `}`
}

// instance maps a rendezvous query the way the daemon does: the grid
// working point with v, φ, χ and r overridden and the displacement set. An
// unoriented query's φ = 0 and χ = +1 are the working point's own.
func (q query) instance() (sim.Instance, error) {
	in, err := experiments.GridInstance([]string{"v", "phi", "chi", "r"}, []float64{q.v, q.phi, float64(q.chi), radius})
	if err != nil {
		return in, err
	}
	in.D = geom.V(q.dx, q.dy)
	return in, in.Validate()
}

// options are the simulation options the daemon uses for the query: its
// default horizon, experiments.RendezvousHorizon for a rendezvous and
// searchHorizon for a search.
func (q query) options() (sim.Options, error) {
	if q.search {
		return sim.Options{Horizon: searchHorizon}, nil
	}
	in, err := q.instance()
	if err != nil {
		return sim.Options{}, err
	}
	return sim.Options{Horizon: experiments.RendezvousHorizon(in)}, nil
}

// key is the query's result-cache key under opt.
func (q query) key(opt sim.Options) (cache.Key, error) {
	if q.search {
		return cache.SearchKey(programID, geom.V(q.x, q.y), radius, opt), nil
	}
	in, err := q.instance()
	return cache.RendezvousKey(programID, in, opt), err
}

// solve is the in-process reference result of the query under opt.
func (q query) solve(opt sim.Options) (sim.Result, error) {
	if q.search {
		return sim.Search(program(), geom.V(q.x, q.y), radius, opt)
	}
	in, err := q.instance()
	if err != nil {
		return sim.Result{}, err
	}
	return sim.Rendezvous(program(), in, opt)
}

// viaCache answers the query through the result cache under opt, as the
// daemon does.
func (q query) viaCache(c *cache.Cache, opt sim.Options) (sim.Result, error) {
	if q.search {
		return c.Search(programID, program, geom.V(q.x, q.y), radius, opt)
	}
	in, err := q.instance()
	if err != nil {
		return sim.Result{}, err
	}
	return c.Rendezvous(programID, program, in, opt)
}
