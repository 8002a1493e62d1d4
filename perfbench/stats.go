package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the fewest samples a reported percentile must have beyond
// it; with fewer, the percentile says more about one sample than about
// the distribution.
const minTail = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. It
// refuses, with an error, a percentile that has fewer than minTail
// samples above its rank.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g of no samples", p*100)
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if beyond := n - 1 - idx; beyond < minTail {
		return 0, fmt.Errorf("percentile p%g of %d samples has %d beyond it, need %d", p*100, n, beyond, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[idx], nil
}

// median is the middle value of xs (mean of the two middle values for
// even n), 0 for none. Unlike percentile it is used on small sets of
// per-pass totals, where the tail rule does not apply.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// fastQuarterMean is the mean of the fastest quarter of xs (at least
// one value), 0 for none. Interference from other work on the host only
// ever adds time, so the fast side of a statement's latencies follows the
// code and the median follows the neighbours: under intermittent
// memory-bound load on the other vCPU the median-based pass totals of
// plan-joins spread 13-17% across runs and these 5-8%.
func fastQuarterMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := max(1, len(s)/4)
	var t float64
	for _, x := range s[:k] {
		t += x
	}
	return t / float64(k)
}

// ratio is a reported quotient together with the two counts it came
// from, so a reader can tell 1/2 from 500/1000.
type ratio struct {
	num, den         float64
	numName, denName string
}

func (r ratio) value() float64 {
	if r.den == 0 {
		return 0
	}
	return r.num / r.den
}

func (r ratio) String() string {
	return fmt.Sprintf("%s %.6g / %s %.6g", r.numName, r.num, r.denName, r.den)
}

// ranks returns the 1-based ranks of xs, averaging the ranks of ties.
func ranks(xs []float64) []float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	r := make([]float64, len(xs))
	for i := 0; i < len(idx); {
		j := i
		for j+1 < len(idx) && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			r[idx[k]] = avg
		}
		i = j + 1
	}
	return r
}

// spearman is the rank correlation of x and y (Pearson correlation of
// their ranks); 0 when either side is constant or there are fewer than
// three pairs.
func spearman(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 3 {
		return 0
	}
	rx, ry := ranks(x), ranks(y)
	var mx, my float64
	for i := range rx {
		mx += rx[i]
		my += ry[i]
	}
	mx /= float64(len(rx))
	my /= float64(len(ry))
	var sxy, sxx, syy float64
	for i := range rx {
		dx, dy := rx[i]-mx, ry[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// qerror is the symmetric estimate error max(e/a, a/e), with both sides
// floored at one row so empty results do not divide by zero.
func qerror(est, act float64) float64 {
	est, act = math.Max(est, 1), math.Max(act, 1)
	return math.Max(est/act, act/est)
}
