package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	if v, err := percentile(seq(1000), 0.99); err != nil || v != 990 {
		t.Fatalf("p99 of 1000 = %v, %v; want 990 with 10 samples beyond", v, err)
	}
	if _, err := percentile(seq(999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples has only 9 beyond it and must fail")
	}
	if v, err := percentile(seq(20), 0.5); err != nil || v != 10 {
		t.Fatalf("p50 of 20 = %v, %v; want 10 with 10 samples beyond", v, err)
	}
	if _, err := percentile(seq(19), 0.5); err == nil {
		t.Fatal("p50 of 19 samples has 9 beyond it and must fail")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("a percentile of no samples must fail")
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	tr := &tracer{}
	parent := tr.add("parent", 0, 1, 0, 100)
	tr.add("a", parent, 1, 10, 40)  // overlaps b: the union of a and b is [10, 50]
	tr.add("b", parent, 1, 30, 50)  //
	tr.add("c", parent, 1, 90, 120) // clipped to the parent: covers [90, 100]
	leaf := tr.add("leaf", 0, 2, 5, 8)
	self := selfTimes(tr.spans)
	if got, want := self[parent], time.Duration(100-40-10); got != want {
		t.Errorf("parent self = %v, want %v", got, want)
	}
	if got := self[leaf]; got != 3 {
		t.Errorf("childless span self = %v, want its duration 3", got)
	}
	if got := self[tr.spans[1].ID]; got != 30 {
		t.Errorf("child a self = %v, want 30", got)
	}
}

func TestRequestListsDependOnlyOnTheSeed(t *testing.T) {
	// Drawn inputs: every one must change with the seed.
	drawn := func(seed int64) []string {
		var out []string
		for i := int64(0); i < 200; i++ {
			out = append(out, coldQuery(seed, i).body(), cutQuery(seed, i).body())
		}
		for k := 0; k < 50; k++ {
			out = append(out, warmTarget(seed, k).String())
		}
		return out
	}
	// serve-hot's working set is fixed; the seed sets the order of requests.
	picks := func(seed int64) []int {
		var out []int
		for i := int64(0); i < 200; i++ {
			out = append(out, hotPick(seed, i))
		}
		return out
	}
	if a, b := drawn(3), drawn(3); !reflect.DeepEqual(a, b) {
		t.Fatal("seed 3 gave two different input lists")
	}
	if a, b := picks(3), picks(3); !reflect.DeepEqual(a, b) {
		t.Fatal("seed 3 gave two different serve-hot request orders")
	}
	a, c := drawn(3), drawn(4)
	for i := range a {
		if a[i] == c[i] {
			t.Fatalf("seeds 3 and 4 share input %d: %s", i, a[i])
		}
	}
	if reflect.DeepEqual(picks(3), picks(4)) {
		t.Fatal("seeds 3 and 4 give the same serve-hot request order")
	}
}

func TestRequestMix(t *testing.T) {
	if len(hotSet) != 7*3+hotSearches {
		t.Fatalf("hot set has %d queries, want loadcheck's 21 rendezvous and %d searches", len(hotSet), hotSearches)
	}
	if got, want := hotSet[0].body(), `{"v":0.2,"dx":1,"dy":0,"r":0.25}`; got != want {
		t.Errorf("first hot query %s, want loadcheck's %s", got, want)
	}
	const n = 20000
	var hotSearch, coldSearch int
	for i := int64(0); i < n; i++ {
		if hotSet[hotPick(9, i)].search {
			hotSearch++
		}
		q := coldQuery(9, i)
		d := math.Hypot(q.dx, q.dy)
		if q.search {
			coldSearch++
			d = math.Hypot(q.x, q.y)
		}
		if d < dMin || d >= dMax {
			t.Fatalf("request %d at distance %g, outside [%g, %g)", i, d, dMin, dMax)
		}
		if !q.search && (q.v < vMin || q.v >= vMax) {
			t.Fatalf("request %d has speed %g, outside [%g, %g)", i, q.v, vMin, vMax)
		}
	}
	for name, k := range map[string]int{"serve-hot": hotSearch, "serve-cold": coldSearch} {
		if share := float64(k) / n; math.Abs(share-searchShare) > 0.01 {
			t.Errorf("%s search share %.4f, want %.2f", name, share, searchShare)
		}
	}
}

func TestColdRequestsMissWarmRecords(t *testing.T) {
	for i := int64(0); i < 5000; i++ {
		q := coldQuery(9, i)
		if q.search && q.x*q.x+q.y*q.y >= 3.25*3.25 {
			t.Fatalf("request %d targets the warm-record range: %+v", i, q)
		}
	}
}

func TestMetricNames(t *testing.T) {
	for _, bad := range []string{"", "_lead", ".lead", "has space", "slash/x", "p99%"} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, declared []struct{ Name, Unit string }) {
		if len(defs) != len(declared) {
			t.Fatalf("%s: the program reports %d metrics, BENCHMARK.json declares %d", kind, len(defs), len(declared))
		}
		for i, d := range defs {
			if !validName(d.name) {
				t.Errorf("%s metric %q has an illegal name", kind, d.name)
			}
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s metric %d: program %s [%s], BENCHMARK.json %s [%s]", kind, i, d.name, d.unit, declared[i].Name, declared[i].Unit)
			}
		}
	}
	check("end_to_end", e2eMetrics, spec.EndToEnd)
	check("per_layer", layerMetrics, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil || !validName(w.Name) {
			t.Errorf("workload %q is not runnable", w.Name)
		}
	}
}

func TestGoldenCheckCatchesOneByte(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", goldenRunAll))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkGolden(golden, golden); err != nil {
		t.Fatalf("identical bytes rejected: %v", err)
	}
	for _, at := range []int{0, len(golden) / 2, len(golden) - 1} {
		changed := append([]byte(nil), golden...)
		changed[at] ^= 1
		if checkGolden(changed, golden) == nil {
			t.Errorf("a change of byte %d passed the golden check", at)
		}
	}
	if checkGolden(golden[:len(golden)-1], golden) == nil {
		t.Error("a truncated output passed the golden check")
	}
	if n := len(tableHeader.FindAll(golden, -1)); n != 19 {
		t.Errorf("the golden has %d table headers, want 19", n)
	}
}

func TestPassRates(t *testing.T) {
	// Two complete passes of 8 requests, each with 8/refEvery references,
	// and an incomplete third pass that is dropped.
	lat := []float64{2, 2, 2, 2, 2, 2, 2, 2, 4, 4, 4, 4, math.Inf(1), 4, 4, 4, 1}
	ref := []float64{1, 1, 2, 2, 1}
	got := passRates(lat, ref, 8)
	want := []float64{0.5, 0.5} // 1/2 over 1/1; 1/4 over 1/2, the failed request counted nowhere
	if len(got) != len(want) {
		t.Fatalf("rates = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rates = %v, want %v", got, want)
		}
	}
}
