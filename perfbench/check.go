package main

import (
	"fmt"
	"sync/atomic"

	"matchfilter/internal/flow"
	"matchfilter/internal/pcap"
)

// fingerprint summarizes one flow's multiset of (rule, offset) matches:
// their count and the sum of a 64-bit hash of each. Order does not
// matter, a lost, extra or moved match changes it.
type fingerprint struct{ n, sum uint64 }

func (f *fingerprint) add(rule int32, pos int64) {
	f.n++
	f.sum += matchHash(rule, pos)
}

// matchHash is splitmix64's finalizer over the packed match.
func matchHash(rule int32, pos int64) uint64 {
	h := uint64(uint32(rule))<<40 ^ uint64(pos)
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// matchCounter accumulates per-flow fingerprints from concurrent match
// callbacks; flows are found by key in the capture's read-only index.
type matchCounter struct {
	idx     map[pcap.FlowKey]int32
	n, sum  []atomic.Uint64
	unknown atomic.Int64 // matches on a flow the capture does not hold
}

func newMatchCounter(c *capture) *matchCounter {
	return &matchCounter{
		idx: c.flowIdx,
		n:   make([]atomic.Uint64, len(c.streams)),
		sum: make([]atomic.Uint64, len(c.streams)),
	}
}

func (mc *matchCounter) add(m flow.Match) {
	i, ok := mc.idx[m.Flow]
	if !ok {
		mc.unknown.Add(1)
		return
	}
	mc.n[i].Add(1)
	mc.sum[i].Add(matchHash(m.ID, m.Pos))
}

// verify compares the accumulated matches with passes copies of the
// reference. It returns nil when every flow matches, else an error naming
// the number of differing flows and the first of them.
func (mc *matchCounter) verify(ref []fingerprint, passes int) error {
	p := uint64(passes)
	bad, first := 0, -1
	for i, r := range ref {
		if mc.n[i].Load() != r.n*p || mc.sum[i].Load() != r.sum*p {
			if first < 0 {
				first = i
			}
			bad++
		}
	}
	if u := mc.unknown.Load(); u > 0 {
		return fmt.Errorf("%d matches on flows the capture does not hold", u)
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d flows differ from the reference over %d passes; first is flow %d: %d matches, want %d",
			bad, len(ref), passes, first, mc.n[first].Load(), ref[first].n*p)
	}
	return nil
}

func refTotal(ref []fingerprint) uint64 {
	var t uint64
	for _, r := range ref {
		t += r.n
	}
	return t
}
