package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the q-quantile (0..1) of xs by nearest rank; xs need
// not be sorted. An empty sample reads 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the cut points Python's statistics.quantiles(xs, n=4)
// gives (the "exclusive" method), which is what the repeatability rule is
// stated in. xs must be sorted; fewer than two values read as that value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	if len(xs) == 1 {
		return xs[0], xs[0], xs[0]
	}
	const n = 4
	ld := len(xs)
	cut := func(i int) float64 {
		j := i * (ld + 1) / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*(ld+1) - j*n
		return (xs[j-1]*float64(n-delta) + xs[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// ratio is a/b, reading 0 when the base was not measured.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's high-water resident set from
// /proc/self/status; 0 where the file does not exist.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
