package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/sim"
)

// The serve workloads drive the real rvserved binary from one process with
// one closed-loop client: it sends its next request only after the previous
// reply, so a slower daemon receives less load.
const (
	setups       = 5           // timed set-ups per run; setup_s is their median
	rssAfter     = 8 * passOps // requests after which the daemon's peak RSS is read
	warmRecords  = 26000       // serve-cold warm-start file size
	probeSamples = 2000        // requests a traced serve-cold run replays in-process
	hitRounds    = 100         // rounds over the working set of the cache-hit probe
	cutSamples   = 20000       // instances of the horizon-cut probe
	cutHorizon   = 1e6         // the horizon that tells a cut instance from one that never meets
)

// workers is the goroutine count of the untimed in-process work (priming,
// references, probes): one per CPU.
var workers = runtime.NumCPU()

// sample is one timed request.
type sample struct {
	i          int64         // request index in the workload's list
	start, end time.Duration // offsets from the run's epoch
	ok         bool          // transport succeeded, status 200, body decoded
	rep        reply
}

func (s sample) latency() time.Duration { return s.end - s.start }

// phase is one closed-loop load phase and the daemon counters around it.
type phase struct {
	samples []sample        // in the order they were sent
	ref     []time.Duration // reference request k followed sample refEvery*k+refEvery-1
	start   time.Duration   // offset of the phase's start from the run's epoch
	m0, m1  metricsDoc
	rss     float64 // the daemon's peak RSS after rssAfter requests; 0 if the phase was shorter
}

// closedLoop sends requests next, next+1, ... until d has passed, and after
// every refEvery of them the last one's body to the reference server. With
// a tracer it records each request's span and, as its child, the daemon's
// own elapsed_ms — placed at the request's start, since only its length is
// known.
func (r *run) closedLoop(c, ref *client, d time.Duration, next *int64, queryAt func(int64) query, rss func() (float64, error), tr *tracer) (phase, error) {
	var ph phase
	var err error
	if ph.m0, err = c.metrics(); err != nil {
		return ph, err
	}
	ph.start = time.Since(r.epoch)
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		i := *next
		*next++
		q := queryAt(i)
		path, body := q.path(), q.body()
		t0 := time.Since(r.epoch)
		status, raw, err := c.post(path, body)
		s := sample{i: i, start: t0, end: time.Since(r.epoch)}
		s.ok = err == nil && status == 200 && json.Unmarshal(raw, &s.rep) == nil
		if tr != nil && s.ok {
			id := tr.add("rvserved.request", 0, i, s.start, s.end)
			tr.addProbe("rvserved.handler", id, i, s.start, time.Duration(s.rep.ElapsedMS*1e6))
		}
		ph.samples = append(ph.samples, s)
		if len(ph.samples) == rssAfter {
			if ph.rss, err = rss(); err != nil {
				return ph, err
			}
		}
		if len(ph.samples)%refEvery == 0 {
			t0 := time.Now()
			status, _, err := ref.post(path, body)
			if err == nil && status != 200 {
				err = fmt.Errorf("status %d", status)
			}
			if err != nil {
				return ph, fmt.Errorf("reference server: %w", err)
			}
			ph.ref = append(ph.ref, time.Since(t0))
		}
	}
	ph.m1, err = c.metrics()
	return ph, err
}

// serveRun is the load of one serve run: the phases the serving daemon ran
// and the set-up times.
type serveRun struct {
	untraced, traced phase // traced is empty on an untraced run
	setup            []float64
}

// measured is the phase the metrics describe: the traced one on a traced
// run.
func (r *run) measured(sr serveRun) phase {
	if r.tr != nil {
		return sr.traced
	}
	return sr.untraced
}

// serve starts the reference server computing echoWork rounds per request,
// then boots the daemon setups times, each boot timed from exec to ready
// (its set-up). The earlier boots stop at once; the last one serves the
// window, on a traced run half untraced and then half traced.
func (r *run) serve(args []string, echoWork int, ready func(*client) error, queryAt func(int64) query) (serveRun, error) {
	var sr serveRun
	echo, err := startEcho(echoWork)
	if err != nil {
		return sr, err
	}
	defer echo.kill()
	ref := newClient(echo.base, 1)
	var d *daemon
	var c *client
	for k := 0; k < setups; k++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return sr, err
			}
		}
		t0 := time.Now()
		var err error
		if d, err = startDaemon(r.opt.rvserved, args...); err != nil {
			return sr, err
		}
		c = newClient(d.base, 1)
		if err := ready(c); err != nil {
			d.kill()
			return sr, err
		}
		sr.setup = append(sr.setup, time.Since(t0).Seconds())
	}
	if err := r.serveWindow(c, ref, queryAt, d.peakRSSMB, &sr); err != nil {
		d.kill()
		return sr, err
	}
	return sr, d.stop()
}

// serveWindow runs the load phases of one run on one daemon. Request
// indices run on from the untraced phase into the traced one.
func (r *run) serveWindow(c, ref *client, queryAt func(int64) query, rss func() (float64, error), sr *serveRun) error {
	var next int64
	var err error
	if sr.untraced, err = r.closedLoop(c, ref, r.half(), &next, queryAt, rss, nil); err != nil || r.tr == nil {
		return err
	}
	if sr.traced, err = r.closedLoop(c, ref, r.half(), &next, queryAt, rss, r.tr); err != nil {
		return err
	}
	r.layer["trace.overhead_ratio"] = meanLatency(sr.traced) / meanLatency(sr.untraced)
	return nil
}

// samplesOf pools the samples of phases in request-index order.
func samplesOf(phases ...phase) []sample {
	var all []sample
	for _, ph := range phases {
		all = append(all, ph.samples...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].i < all[b].i })
	return all
}

func meanLatency(ph phase) float64 {
	xs := make([]float64, len(ph.samples))
	for k, s := range ph.samples {
		xs[k] = ms(s.latency())
	}
	return mean(xs)
}

// expected is the in-process reference of one request: the result and the
// horizon the daemon must echo.
type expected struct {
	res     sim.Result
	horizon float64
}

// reference computes the expected reply to q under the daemon's defaults.
func reference(q query) (expected, error) {
	opt, err := q.options()
	if err != nil {
		return expected{}, err
	}
	res, err := q.solve(opt)
	return expected{res, opt.Horizon}, err
}

// verify checks every reply against the in-process reference of its query,
// bit for bit on met, time, intervals and the echoed horizon, and counts
// the attempts, the failures (errors, refusals and mismatches) and the
// unmet instances.
func (r *run) verify(sr serveRun, expect func(i int64) (expected, error)) error {
	all := samplesOf(sr.untraced, sr.traced)
	var failed, unmet atomic.Int64
	if err := parallel(len(all), func(k int) error {
		s := all[k]
		if !s.ok {
			failed.Add(1)
			return nil
		}
		want, err := expect(s.i)
		if err != nil {
			return fmt.Errorf("reference for request %d: %w", s.i, err)
		}
		if !want.res.Met || !s.rep.Met {
			unmet.Add(1)
		}
		if s.rep.Met != want.res.Met || s.rep.Time != want.res.Time || s.rep.Intervals != want.res.Intervals || s.rep.Horizon != want.horizon {
			failed.Add(1)
		}
		return nil
	}); err != nil {
		return err
	}
	r.attempted += int64(len(all))
	r.failed += failed.Load()
	if n := unmet.Load(); n > 0 {
		r.invalid("%d instances did not meet before their horizon", n)
	}
	return nil
}

// serveE2E computes the end-to-end metrics of the measured phase. The
// percentiles are over the whole phase, both over the reference requests'
// median: the reference's own tail is the machine's jitter, which does not
// scale a long request's time as the machine's speed does. qps_rel is the
// median of passRates.
func (r *run) serveE2E(sr serveRun) {
	ph := r.measured(sr)
	lat := make([]float64, len(ph.samples))
	for k, s := range ph.samples {
		lat[k] = math.Inf(1) // a failed request misses every latency limit
		if s.ok {
			lat[k] = ms(s.latency())
		}
	}
	refLat := make([]float64, len(ph.ref))
	for k, d := range ph.ref {
		refLat[k] = ms(d)
	}
	rates := passRates(lat, refLat, passOps)
	p50, p99 := r.tail(sortedCopy(lat), "request")
	refP50 := r.pct(sortedCopy(refLat), 0.5, "reference request latency")
	r.note("request latency p50 %.4f ms, p99 %.4f ms; reference p50 %.4f ms over %d requests", p50, p99, refP50, len(refLat))
	r.e2e["setup_s"] = median(sr.setup)
	r.e2e["qps_rel"] = median(rates)
	r.e2e["p50_rel"] = p50 / refP50
	r.e2e["p99_rel"] = p99 / refP50
	n := float64(len(ph.samples))
	r.e2e["alloc_mb"] = float64(ph.m1.Runtime.TotalAlloc-ph.m0.Runtime.TotalAlloc) / (n / passOps) / 1e6
	r.e2e["peak_rss_mb"] = ph.rss
	if ph.rss == 0 {
		r.invalid("the window served fewer than %d requests, so no peak RSS was read", rssAfter)
	}
}

// tail returns the p50 and p99 of sorted latencies in ms, marking the run
// invalid when the sample is too small for them.
func (r *run) tail(sorted []float64, what string) (p50, p99 float64) {
	r.note("%s latency: %d samples", what, len(sorted))
	return r.pct(sorted, 0.5, what+" latency"), r.pct(sorted, 0.99, what+" latency")
}

// passRates splits the latencies of requests sent in order, and those of
// the reference requests interleaved one after every refEvery of them, into
// passes of per requests. For each complete pass it returns the rate of
// successful replies over the rate of reference replies, a rate being
// replies over the time spent waiting for them. A failed request (+Inf)
// counts in neither the replies nor the time.
func passRates(lat, refLat []float64, per int) []float64 {
	var rates []float64
	for p := 0; (p+1)*per <= len(lat) && (p+1)*per/refEvery <= len(refLat); p++ {
		var ok, busy, refBusy float64
		for _, l := range lat[p*per : (p+1)*per] {
			if !math.IsInf(l, 1) {
				ok++
				busy += l
			}
		}
		refs := refLat[p*per/refEvery : (p+1)*per/refEvery]
		for _, l := range refs {
			refBusy += l
		}
		rates = append(rates, ok/busy/(float64(len(refs))/refBusy))
	}
	return rates
}

// cacheDeltas reports the daemon's cache and runtime counters over the
// measured phase and returns the hit ratio and the number of hits.
func (r *run) cacheDeltas(sr serveRun) (hitRatio float64, hits uint64) {
	ph := r.measured(sr)
	m0, m1 := ph.m0, ph.m1
	lookups := m1.Cache.Lookups - m0.Cache.Lookups
	hits = m1.Cache.Hits - m0.Cache.Hits
	hitRatio = float64(hits) / float64(max(lookups, 1))
	r.note("cache: %d lookups, %d hits, hit ratio %.4f", lookups, hits, hitRatio)
	r.layer["cache.hit_ratio"] = hitRatio
	r.layer["cache.dedups"] = float64(m1.Cache.Dedups - m0.Cache.Dedups)
	r.layer["runtime.alloc_kb_per_req"] = float64(m1.Runtime.TotalAlloc-m0.Runtime.TotalAlloc) / float64(max(len(ph.samples), 1)) / 1e3
	r.layer["runtime.gc_count"] = float64(m1.Runtime.NumGC - m0.Runtime.NumGC)
	return hitRatio, hits
}

// requestSelf returns, per request index of the traced phase, the request's
// client-observed latency and the daemon's self time in it (the request
// span minus the daemon's elapsed_ms), both in µs.
func (r *run) requestSelf() (client, self map[int64]float64) {
	spans := r.tr.spans
	st := selfTimes(spans)
	client, self = map[int64]float64{}, map[int64]float64{}
	for _, s := range spans {
		if s.Name == "rvserved.request" {
			client[s.Req] = us(s.dur())
			self[s.Req] = us(st[s.ID])
		}
	}
	return client, self
}

// selfLayers sets rvserved.self_ms.{p50,p99} from the request self times.
func (r *run) selfLayers(self map[int64]float64) {
	xs := make([]float64, 0, len(self))
	for _, v := range self {
		xs = append(xs, v/1e3)
	}
	sort.Float64s(xs)
	r.layer["rvserved.self_ms.p50"] = r.pct(xs, 0.5, "rvserved.self_ms")
	r.layer["rvserved.self_ms.p99"] = r.pct(xs, 0.99, "rvserved.self_ms")
}

// pct is percentile for a reported metric: a sample too small for the tail
// rule makes the run invalid.
func (r *run) pct(sorted []float64, q float64, what string) float64 {
	v, err := percentile(sorted, q)
	if err != nil {
		r.invalid("%s: %v", what, err)
	}
	return v
}

// residual sets trace.residual_ratio: how far the median of the summed
// layer times of each probed request falls short of (or exceeds) the median
// client-observed latency of the same requests, as a share of the latter.
func (r *run) residual(client, layers map[int64]float64) {
	var c, sum []float64
	for i, l := range layers {
		if v, ok := client[i]; ok {
			c = append(c, v)
			sum = append(sum, l)
		}
	}
	mc := median(c)
	if mc > 0 {
		r.layer["trace.residual_ratio"] = (mc - median(sum)) / mc
	}
	r.note("residual: %d requests, client median %.1fus, summed layers median %.1fus", len(c), mc, median(sum))
}

// serveHot: a memory-cache daemon whose working set set-up primes, so the
// timed requests are all cache hits and HTTP+JSON does the work.
func serveHot(r *run) error {
	seed := r.opt.seed
	prime := func(c *client) error {
		return parallel(len(hotSet), func(j int) error {
			status, _, err := c.post(hotSet[j].path(), hotSet[j].body())
			if err == nil && status != 200 {
				err = fmt.Errorf("priming request %d: status %d", j, status)
			}
			return err
		})
	}
	sr, err := r.serve(nil, hotEchoWork, prime, func(i int64) query { return hotSet[hotPick(seed, i)] })
	if err != nil {
		return err
	}

	want := make([]expected, len(hotSet))
	for j, q := range hotSet {
		if want[j], err = reference(q); err != nil {
			return err
		}
	}
	if err := r.verify(sr, func(i int64) (expected, error) { return want[hotPick(seed, i)], nil }); err != nil {
		return err
	}
	if hr, _ := r.cacheDeltas(sr); hr < 0.99 {
		r.invalid("serve-hot hit ratio %.4f is below 0.99", hr)
	}
	if r.tr == nil {
		r.serveE2E(sr)
		return nil
	}

	// Layer probe: each working-set query through an in-process cache that
	// already holds it — the lookup a hit costs, without HTTP or JSON.
	mem := cache.New(0)
	opts := make([]sim.Options, len(hotSet))
	for j, q := range hotSet {
		if opts[j], err = q.options(); err != nil {
			return err
		}
		if _, err := q.viaCache(mem, opts[j]); err != nil {
			return err
		}
	}
	var hits []float64
	perEntry := make([][]float64, len(hotSet))
	for round := 0; round < hitRounds; round++ {
		for j, q := range hotSet {
			t0 := time.Since(r.epoch)
			if _, err := q.viaCache(mem, opts[j]); err != nil {
				return err
			}
			t1 := time.Since(r.epoch)
			r.tr.add("cache.hit", 0, int64(j), t0, t1)
			hits = append(hits, us(t1-t0))
			perEntry[j] = append(perEntry[j], us(t1-t0))
		}
	}
	r.layer["cache.hit_us.p50"] = r.pct(sortedCopy(hits), 0.5, "cache.hit_us")
	hitMedian := make([]float64, len(hotSet))
	for j, xs := range perEntry {
		hitMedian[j] = median(xs)
	}
	client, self := r.requestSelf()
	r.selfLayers(self)
	layers := map[int64]float64{}
	for i, v := range self {
		layers[i] = v + hitMedian[hotPick(seed, i)]
	}
	r.residual(client, layers)
	return nil
}

// serveCold: a daemon booted from a warm-start file of records no request
// asks for, serving a fresh instance on every request, so trajectory
// generation, the contact walk and the cache's write side (Put, journal
// append, a periodic Save every two seconds) carry the load.
func serveCold(r *run) error {
	seed := r.opt.seed
	dir, err := os.MkdirTemp(r.opt.out, "serve-cold-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	warm, served := filepath.Join(dir, "warm.jsonl"), filepath.Join(dir, "served.jsonl")
	if err := writeWarm(warm, seed); err != nil {
		return err
	}
	if err := copyFile(warm, served); err != nil {
		return err
	}
	queryAt := func(i int64) query { return coldQuery(seed, i) }
	sr, err := r.serve([]string{"-cachefile", served, "-flush", "2s"}, coldEchoWork, func(*client) error { return nil }, queryAt)
	if err != nil {
		return err
	}
	if err := r.verify(sr, func(i int64) (expected, error) { return reference(queryAt(i)) }); err != nil {
		return err
	}
	if _, hits := r.cacheDeltas(sr); hits > 0 {
		r.invalid("serve-cold hit the cache %d times", hits)
	}
	if r.tr == nil {
		r.serveE2E(sr)
		return nil
	}
	if err := r.coldProbe(warm, samplesOf(sr.traced)); err != nil {
		return err
	}
	return r.horizonCut()
}

// coldProbe replays the first probeSamples requests of the traced phase
// in-process. Each is walked alone (sim.Rendezvous or sim.Search, with the
// trajectory generation as a probe child), then its result goes through the
// write side of a file-backed cache opened from the warm-start file: a Get
// that misses and a Put that journals the record.
func (r *run) coldProbe(warm string, traced []sample) error {
	t0 := time.Now()
	fc, err := cache.Open(warm, 0)
	if err != nil {
		return err
	}
	r.layer["cache.open_s"] = time.Since(t0).Seconds()
	r.layer["cache.records"] = float64(fc.Len())

	var walk, miss, segs, intervals []float64
	layers := map[int64]float64{}
	for _, s := range traced[:min(probeSamples, len(traced))] {
		q := coldQuery(r.opt.seed, s.i)
		opt, err := q.options()
		if err != nil {
			return err
		}
		k, err := q.key(opt)
		if err != nil {
			return err
		}
		w0 := time.Since(r.epoch)
		res, err := q.solve(opt)
		w1 := time.Since(r.epoch)
		if err != nil {
			return err
		}
		id := r.tr.add(simSpan(q), 0, s.i, w0, w1)
		gd, n, err := genStreams(q, res.Time)
		if err != nil {
			return err
		}
		r.tr.addProbe("trajectory.gen", id, s.i, w0, gd)
		c0 := time.Since(r.epoch)
		_, hit := fc.Get(k)
		fc.Put(k, res)
		c1 := time.Since(r.epoch)
		if hit {
			return fmt.Errorf("request %d hit the warm-start records", s.i)
		}
		r.tr.add("cache.miss", 0, s.i, c0, c1)
		walk = append(walk, us(w1-w0))
		miss = append(miss, us(c1-c0))
		segs = append(segs, float64(n))
		intervals = append(intervals, float64(res.Intervals))
		layers[s.i] = us(w1-w0) + us(c1-c0)
	}
	s0 := time.Now()
	if err := fc.Save(); err != nil {
		return err
	}
	r.layer["cache.save_ms"] = ms(time.Since(s0))

	spans := r.tr.spans
	self := selfTimes(spans)
	simSelf := append(selfByName(spans, self, "sim.Rendezvous"), selfByName(spans, self, "sim.Search")...)
	r.layer["cache.miss_self_us.p50"] = r.pct(sortedCopy(miss), 0.5, "cache.miss_self_us")
	r.simLayers(walk, simSelf, durationsByName(spans, "trajectory.gen"), segs, intervals)

	client, reqSelf := r.requestSelf()
	r.selfLayers(reqSelf)
	for i, v := range layers {
		layers[i] = v + reqSelf[i]
	}
	r.residual(client, layers)
	return nil
}

// horizonCut sets sim.horizon_cut: of cutSamples serve-cold rendezvous at
// displacements of [0.5, 1), the number that end without contact under the
// daemon's default horizon (experiments.RendezvousHorizon) but meet under
// cutHorizon. The timed requests never go below a displacement of 1, so
// this probe is where the default horizon's cut-off shows.
func (r *run) horizonCut() error {
	var cut atomic.Int64
	err := parallel(cutSamples, func(k int) error {
		q := cutQuery(r.opt.seed, int64(k))
		want, err := reference(q)
		if err != nil || want.res.Met {
			return err
		}
		res, err := q.solve(sim.Options{Horizon: cutHorizon})
		if err == nil && res.Met {
			cut.Add(1)
		}
		return err
	})
	r.layer["sim.horizon_cut"] = float64(cut.Load())
	r.note("horizon cut: %d of %d instances at |d| in [0.5, 1) meet only beyond the default horizon", cut.Load(), cutSamples)
	return err
}

func cacheSpan(q query) string {
	if q.search {
		return "cache.Search"
	}
	return "cache.Rendezvous"
}

func simSpan(q query) string {
	if q.search {
		return "sim.Search"
	}
	return "sim.Rendezvous"
}

// genStreams times generating the robots' trajectories of a query up to
// time until (see genInstance); a search has one robot running the bare
// program.
func genStreams(q query, until float64) (time.Duration, int, error) {
	if q.search {
		d, n := genSources(until, program())
		return d, n, nil
	}
	in, err := q.instance()
	if err != nil {
		return 0, 0, err
	}
	d, n := genInstance(in, until)
	return d, n, nil
}

// writeWarm writes the serve-cold warm-start file: warmRecords real search
// results for targets no request asks for.
func writeWarm(path string, seed int64) error {
	c := cache.New(0)
	opt := sim.Options{Horizon: searchHorizon}
	if err := parallel(warmRecords, func(k int) error {
		_, err := c.Search(programID, program, warmTarget(seed, k), radius, opt)
		return err
	}); err != nil {
		return err
	}
	return c.SaveAs(path)
}

func copyFile(from, to string) error {
	b, err := os.ReadFile(from)
	if err != nil {
		return err
	}
	return os.WriteFile(to, b, 0o644)
}

// parallel runs fn(0..n-1) on one goroutine per CPU and returns the first
// error.
func parallel(n int, fn func(k int) error) error {
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < n; k += workers {
				if err := fn(k); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
