package main

import "sort"

// quartiles returns the three cut points of values the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method), so
// the spreads printed here are the ones the driver computes. It needs
// at least two values; with fewer it returns the one value three times.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	m := len(d)
	switch m {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// percentile returns the p-th percentile (0..100) of values by linear
// interpolation between closest ranks.
func percentile(values []float64, p float64) float64 {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	if len(d) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(d)-1)
	i := int(pos)
	if i >= len(d)-1 {
		return d[len(d)-1]
	}
	f := pos - float64(i)
	return d[i]*(1-f) + d[i+1]*f
}
