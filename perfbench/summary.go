package main

import "sort"

// quartiles returns the three cut points of sorted-copy xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the default
// exclusive method), which is how run-to-run spread is judged. It
// needs at least two values.
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	var q [3]float64
	ld := len(d)
	if ld < 2 {
		if ld == 1 {
			q = [3]float64{d[0], d[0], d[0]}
		}
		return q
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}

// median returns the middle value (the mean of the two middle values
// for an even count), or 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}
