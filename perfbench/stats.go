package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// minBeyond is the number of samples that must lie above a reported
// percentile: a tail value resting on fewer is noise, not a measurement.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted (ascending) and
// fails when fewer than minBeyond samples lie beyond it — so p99 needs at
// least 1000 samples and p50 at least 20.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %g of %d samples is undefined", q, n)
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, beyond, minBeyond)
	}
	return sorted[rank-1], nil
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count) without the tail rule: it is used for the few set-up
// and pass repetitions of one run. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// validName reports whether name is a legal metric name: a letter or digit,
// then at most 63 letters, digits, '_', '.' and '-'.
func validName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for i, c := range name {
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if !alnum && (i == 0 || c != '_' && c != '.' && c != '-') {
			return false
		}
	}
	return true
}

// checkGolden compares output with the golden bytes and names the first
// differing byte.
func checkGolden(got, want []byte) error {
	n := min(len(got), len(want))
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			return fmt.Errorf("output differs from the golden at byte %d (%q vs %q)", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("output is %d bytes, the golden %d", len(got), len(want))
	}
	return nil
}

// peakRSSMB reads the peak resident set size (VmHWM) of process pid — "self"
// for this process — in MB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024 / 1e6, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
