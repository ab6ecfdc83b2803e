package main

import (
	"math/bits"
	"runtime"
	"slices"
)

// quantile returns the q-quantile of xs (0 <= q <= 1) by linear
// interpolation between closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// slowTail is the share of windows a figure leaves out at the slow
// end: it reports the 2nd-percentile window rate and the
// 98th-percentile window latency (see passStats).
const slowTail = 0.02

// slowRate returns the rate the windows hold in all but their slowest
// slowTail. xs is sorted in place.
func slowRate(xs []float64) float64 { return quantile(xs, slowTail) }

// slowTime returns the time the windows stay within in all but their
// slowest slowTail. xs is sorted in place.
func slowTime(xs []float64) float64 { return quantile(xs, 1-slowTail) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// histogram counts non-negative durations in ns with a relative
// resolution of 1/1024: values below 2048 ns get a bucket each, larger
// ones keep their top eleven bits. It holds millions of per-frame
// samples in a few hundred KiB, so the benchmark's own memory stays
// out of the heap figures it reports.
type histogram struct {
	counts []int64
	n      int64
}

func newHistogram() *histogram { return &histogram{counts: make([]int64, 2048+40*1024)} }

func bucketOf(v int64) int {
	if v < 2048 {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	s := bits.Len64(uint64(v)) - 11
	return 2048 + (s-1)*1024 + int(v>>s) - 1024
}

// bucketMid is the middle of bucket i's value range.
func bucketMid(i int) float64 {
	if i < 2048 {
		return float64(i)
	}
	s := (i-2048)/1024 + 1
	m := int64((i-2048)%1024 + 1024)
	return float64(m<<s) + float64(int64(1)<<s)/2
}

func (h *histogram) add(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
}

// merge adds o's counts to h.
func (h *histogram) merge(o *histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

func (h *histogram) reset() {
	clear(h.counts)
	h.n = 0
}

// quantile returns the q-quantile in ns.
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q*float64(h.n-1)) + 1
	var seen int64
	for i, c := range h.counts {
		if seen += c; seen >= rank {
			return bucketMid(i)
		}
	}
	return bucketMid(len(h.counts) - 1)
}

// liveHeapMB collects garbage and returns the heap still reachable, in
// MiB. Measured after a forced collection, the figure leaves out the
// floating garbage a sample taken mid-cycle would catch, so it repeats
// exactly for the same program state.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// allocDelta brackets a pass with runtime.MemStats reads.
type allocDelta struct {
	before runtime.MemStats
}

func startAllocDelta() *allocDelta {
	a := &allocDelta{}
	runtime.ReadMemStats(&a.before)
	return a
}

// perUnit returns allocated objects and bytes per unit of work and GC
// cycles per million units since start.
func (a *allocDelta) perUnit(units float64) (objects, bytes, gcPerM float64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return ratio(float64(after.Mallocs-a.before.Mallocs), units),
		ratio(float64(after.TotalAlloc-a.before.TotalAlloc), units),
		ratio(float64(after.NumGC-a.before.NumGC)*1e6, units)
}
