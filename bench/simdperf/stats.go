package simdperf

import (
	"math"
	"sort"
	"time"
)

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest value with at least p% of the sample at or below it.
// xs need not be sorted; an empty sample yields 0.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// Median is the nearest-rank 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// TailMean returns the mean of the largest share (0 < share <= 1) of xs:
// of its ceil(share*n) largest values. Unlike a percentile it does not jump
// between the cost levels of a mix when the sample shifts by a few values,
// and it uses every value in the tail. An empty sample yields 0.
func TailMean(xs []float64, share float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := min(max(int(math.Ceil(share*float64(len(s)))), 1), len(s))
	sum := 0.0
	for _, x := range s[len(s)-k:] {
		sum += x
	}
	return sum / float64(k)
}

// Quartiles returns the first quartile, the median and the third quartile
// of xs by the method of Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), so spreads computed here match those computed from
// the same values by a Python reader of the run documents. A sample of one
// value returns that value three times.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		delta := i*m - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// Spread is the interquartile distance as a share of the median, the
// run-to-run variability a metric's regression bound is set against.
func Spread(xs []float64) float64 {
	q1, med, q3 := Quartiles(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
