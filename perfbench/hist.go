package main

import "math/bits"

// histogram is a log-linear histogram of nanosecond durations with 32
// sub-buckets per power of two (about 3% bucket width, interpolated). It
// is filled from a single goroutine and needs no storage per sample, so
// a long run does not grow the heap it is measuring.
type histogram struct {
	counts [histSub + 59*histSub]uint64
	n      uint64
}

const histSub = 32

func histBucket(v uint64) int {
	if v < histSub {
		return int(v)
	}
	shift := bits.Len64(v) - 6 // v>>shift lies in [32, 64)
	return histSub + shift*histSub + int(v>>uint(shift)) - histSub
}

// histBounds returns a bucket's lower bound and width.
func histBounds(b int) (lo, width uint64) {
	if b < histSub {
		return uint64(b), 1
	}
	shift := uint((b - histSub) / histSub)
	m := uint64((b-histSub)%histSub + histSub)
	return m << shift, 1 << shift
}

func (h *histogram) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histBucket(uint64(ns))]++
	h.n++
}

// quantile returns the q-quantile in nanoseconds, interpolating linearly
// inside the bucket that holds it.
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var cum uint64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) > rank {
			lo, w := histBounds(b)
			return float64(lo) + float64(w)*(rank-float64(cum)+0.5)/float64(c)
		}
		cum += c
	}
	return 0
}
