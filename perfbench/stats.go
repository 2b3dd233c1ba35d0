package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// hist is a log-linear latency histogram in nanoseconds: exact below 256,
// then 128 sub-buckets per power of two, so a reported quantile is within
// 0.8% of the true sample. It is fixed-size and not safe for concurrent
// use; every worker records into its own and the results are merged.
type hist struct {
	counts   [histBuckets]uint64
	n        uint64
	sum      float64
	min, max int64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits // sub-buckets per power of two
	histBuckets = 2*histSub + (64-histSubBits-1)*histSub
)

func histIndex(v uint64) int {
	if v < 2*histSub {
		return int(v)
	}
	e := bits.Len64(v) - (histSubBits + 1) // >= 1
	m := v >> uint(e)                      // in [histSub, 2*histSub)
	return 2*histSub + (e-1)*histSub + int(m-histSub)
}

// histMid is the midpoint of bucket i's value range.
func histMid(i int) float64 {
	if i < 2*histSub {
		return float64(i)
	}
	e := (i-2*histSub)/histSub + 1
	m := uint64((i-2*histSub)%histSub + histSub)
	lo := m << uint(e)
	hi := (m+1)<<uint(e) - 1
	return (float64(lo) + float64(hi)) / 2
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	if h.n == 0 || ns < h.min {
		h.min = ns
	}
	if ns > h.max {
		h.max = ns
	}
	h.counts[histIndex(uint64(ns))]++
	h.n++
	h.sum += float64(ns)
}

func (h *hist) merge(o *hist) {
	if o.n == 0 {
		return
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the value at rank ceil(q*n) (1-based), clamped to the
// observed min and max; 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			v := histMid(i)
			return math.Min(math.Max(v, float64(h.min)), float64(h.max))
		}
	}
	return float64(h.max)
}

// tailQ is the percentile reported as "p99": 0.99 when at least ten
// samples lie beyond it, otherwise the highest percentile that still has
// ten samples beyond it (rank n-10), and never below the median.
func tailQ(n uint64) float64 {
	if n == 0 {
		return 0.99
	}
	if float64(n)*0.01 >= 10 {
		return 0.99
	}
	q := float64(n-min(n, 10)) / float64(n)
	return math.Max(q, 0.5)
}

// tail reports the histogram's tail latency by the tailQ rule.
func (h *hist) tail() float64 { return h.quantile(tailQ(h.n)) }

// slices is the number of equal parts a timed window is cut into for the
// reported tails.
const slices = 10

// opHist records one operation kind over a timed window: all samples,
// and the samples of each slice of the window.
type opHist struct {
	all   hist
	slice [slices]hist
}

// sliceOf maps a time since the window's start onto its slice.
func sliceOf(since, window time.Duration) int {
	if since <= 0 || window <= 0 {
		return 0
	}
	return min(int(since*slices/window), slices-1)
}

func (h *opHist) record(slice int, ns int64) {
	h.all.record(ns)
	h.slice[slice].record(ns)
}

func (h *opHist) merge(o *opHist) {
	h.all.merge(&o.all)
	for i := range h.slice {
		h.slice[i].merge(&o.slice[i])
	}
}

// tail is the median, over the slices that hold samples, of each
// slice's tail by the tailQ rule: the tail of a typical part of the
// window. A hiccup of the host or its disk that covers a few seconds
// moves a few slices and not the median, so the figure is steady
// across runs; a change that lengthens the tail throughout the window
// moves every slice.
func (h *opHist) tail() float64 {
	var v []float64
	for i := range h.slice {
		if h.slice[i].n > 0 {
			v = append(v, h.slice[i].tail())
		}
	}
	return median(v)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// span is one timed interval in nanoseconds since the run's epoch.
type span struct{ start, end int64 }

// selfTime is parent's duration minus the part of it that the union of
// children covers; overlapping children are counted once and the parts
// of a child outside the parent are ignored.
func selfTime(parent span, children []span) int64 {
	clipped := make([]span, 0, len(children))
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if e > s {
			clipped = append(clipped, span{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered int64
	var cur span
	for i, c := range clipped {
		if i == 0 || c.start > cur.end {
			covered += cur.end - cur.start
			cur = c
			continue
		}
		cur.end = max(cur.end, c.end)
	}
	covered += cur.end - cur.start
	return parent.end - parent.start - covered
}

// openLoopTimes returns how late a request was sent and its latency, both
// measured from the time it was scheduled to be sent, so a stall that
// delays later sends counts against those later requests.
func openLoopTimes(scheduled, sent, done int64) (late, latency int64) {
	return max(sent-scheduled, 0), done - scheduled
}

// ratio is num/base, or 0 when the base is empty.
func ratio(num, base float64) float64 {
	if base == 0 {
		return 0
	}
	return num / base
}
