package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The reference operations. The machines this benchmark runs on are shared:
// their speed drifts by a third and more over minutes (on the 2-vCPU VM the
// figures in README.md come from, the median of the same HTTP round trip
// moved from 0.14 to 0.22 ms in four minutes), so two runs of the same code
// minutes apart read different times. Every timed operation is therefore
// interleaved with a reference operation built from this package's own code,
// which no change to the repository can make faster or slower, and the
// timing metrics are the workload's times over the reference's. The drift
// slows both alike and cancels in the ratio.
//
//   - serve-*: after every refEvery requests to rvserved, the same client
//     sends one request to a reference server, a second perfbench process
//     (-echo) that decodes the JSON body, computes for a fixed number of
//     refWork rounds and encodes a reply of the same shape as rvserved's.
//   - suite-cold, grid-sampled: before the first pass and after every
//     pass, a reference pass runs refJobs refWork jobs on one goroutine per
//     CPU, as the sweep pool runs its jobs.

const (
	refEvery   = 4    // serve: rvserved requests per reference request
	refJobs    = 2000 // in-process: jobs in a reference pass
	refJobWork = 200  // in-process: refWork rounds per reference job
	// The float64s a reference job allocates: as much per second as the
	// workload allocates, so that the reference pays for allocation and
	// collection in the same measure. A suite pass allocates 0.6 GB/s and
	// a reference pass with 64 KB jobs 0.8 GB/s; a grid pass 8 MB/s and a
	// reference pass with 1 KB jobs 12 MB/s.
	suiteRefTable = 8192
	gridRefTable  = 128
	echoTable     = 512 // float64s the reference server allocates per request
	hotEchoWork   = 0   // serve-hot's reference: HTTP and JSON alone
	// serve-cold's reference computes about as long as a typical request.
	coldEchoWork = 270
)

// refSink keeps the compiler from dropping refWork's result.
var refSink atomic.Uint64

// refWork allocates a table of size float64s (a power of two) and runs n
// rounds of a fixed kernel on it: the square roots, sines and scattered
// table updates a contact walk is made of.
func refWork(n, size int) {
	tab := make([]float64, size)
	x, y := 0.3, 0.7
	for i := 0; i < n; i++ {
		for k := 0; k < 16; k++ {
			s, c := math.Sincos(x)
			x = math.Sqrt(s*s+y) + 0.01*c
			y = 0.5*y + 0.25*math.Abs(c)
			tab[(i*16+k)*4099&(size-1)] += x
		}
	}
	refSink.Add(math.Float64bits(x + y + tab[7]))
}

// echoRequest and echoReply have the shape of rvserved's point requests
// and replies, so that the reference server decodes and encodes as much.
type echoRequest struct {
	V    float64 `json:"v"`
	Phi  float64 `json:"phi"`
	Chi  int     `json:"chi"`
	DX   float64 `json:"dx"`
	DY   float64 `json:"dy"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
	R    float64 `json:"r"`
	Algo string  `json:"algo"`
}

type echoReply struct {
	Met       bool    `json:"met"`
	Time      float64 `json:"time"`
	Gap       float64 `json:"gap"`
	DistanceA float64 `json:"distance_a"`
	DistanceB float64 `json:"distance_b"`
	Intervals int     `json:"intervals"`
	Horizon   float64 `json:"horizon"`
	Algorithm string  `json:"algorithm"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// serveEcho runs the reference server: every POST computes work refWork
// rounds and answers with a reply built from the request. It prints its
// address as rvserved does and serves until the process is stopped.
func serveEcho(work int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Printf("perfbench echo: listening on http://%s\n", ln.Addr())
	return http.Serve(ln, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		var req echoRequest
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		refWork(work, echoTable)
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetEscapeHTML(false)
		// The status line is sent; an encoding error could only cut the
		// body short, and the client times the reply without reading it.
		_ = enc.Encode(echoReply{
			Met: true, Time: req.V + req.X, Gap: req.R, DistanceA: req.DX, DistanceB: req.DY,
			Intervals: req.Chi, Horizon: req.Phi, Algorithm: "reference",
			ElapsedMS: time.Since(t0).Seconds() * 1e3,
		})
	}))
}

// startEcho starts the reference server, this binary run with -echo.
func startEcho(work int) (*daemon, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return startProcess(self, "-echo", "-echo-work", fmt.Sprint(work))
}

// refPass runs one reference pass of jobs allocating table float64s each
// and returns its wall time and each job's, in ms.
func refPass(table int) (wall time.Duration, jobs []float64) {
	workers := runtime.GOMAXPROCS(0)
	jobs = make([]float64, refJobs)
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := next.Add(1) - 1; k < refJobs; k = next.Add(1) - 1 {
				j0 := time.Now()
				refWork(refJobWork, table)
				jobs[k] = ms(time.Since(j0))
			}
		}()
	}
	wg.Wait()
	return time.Since(t0), jobs
}
