package main

import (
	"math"
	"sort"
)

// tailCandidates are the percentiles the report may quote as a tail, highest
// first.
var tailCandidates = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest candidate percentile that leaves at
// least ten of n samples beyond it (0 when n < 20, where no tail is
// resolvable).
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// percentile returns the p-th percentile (0..100) of xs by nearest rank,
// sorting xs in place. It returns 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// median returns the 50th percentile of a copy of xs.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 50)
}

// ratio is a/b, or 0 when b is 0 (a layer that saw no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// interval is a half-open time range in any consistent unit.
type interval struct{ lo, hi int64 }

// unionLen returns the total length covered by ivs, counting overlapping
// stretches once. ivs is reordered.
func unionLen(ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	curLo, curHi := int64(0), int64(0)
	open := false
	for _, iv := range ivs {
		if iv.hi <= iv.lo {
			continue
		}
		if !open || iv.lo > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = iv.lo, iv.hi, true
			continue
		}
		if iv.hi > curHi {
			curHi = iv.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfTime returns parent's length minus the part of it its children cover.
// Children may overlap each other (concurrent node spans) and are clipped to
// the parent.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.lo, parent.lo), min(c.hi, parent.hi)
		if hi > lo {
			clipped = append(clipped, interval{lo, hi})
		}
	}
	return (parent.hi - parent.lo) - unionLen(clipped)
}
