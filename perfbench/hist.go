package main

import "math"

// hist is a log-bucketed histogram of positive samples (latencies in ms,
// heap sizes in MiB): fixed memory however many ops a run completes, so
// the benchmark's own bookkeeping neither grows the Go heap it reports
// nor allocates per op. Buckets grow by 1%, from 1e-3 to about 1e5, in
// 7.4 KiB a histogram; quantiles interpolate inside the bucket.
type hist struct {
	n    int
	bins [histBins]uint32
}

const (
	histMin  = 1e-3
	histGrow = 1.01
	histBins = 1852
)

var histLogGrow = math.Log(histGrow)

func (h *hist) add(ms float64) {
	b := 0
	if ms > histMin {
		b = min(int(math.Log(ms/histMin)/histLogGrow), histBins-1)
	}
	h.bins[b]++
	h.n++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	for i, c := range o.bins {
		h.bins[i] += c
	}
}

// quantile returns the nearest-rank q-quantile, placed inside its bucket
// by its rank among the bucket's samples; 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := max(1, int(math.Ceil(q*float64(h.n))))
	seen := 0
	for b, c := range h.bins {
		if c == 0 {
			continue
		}
		if seen+int(c) >= rank {
			frac := (float64(rank-seen) - 0.5) / float64(c)
			return histMin * math.Exp((float64(b)+frac)*histLogGrow)
		}
		seen += int(c)
	}
	return histMin * math.Pow(histGrow, histBins)
}
