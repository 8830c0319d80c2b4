package dfa

import (
	"encoding/binary"
	"hash/maphash"
	"slices"

	"matchfilter/internal/regexparse"
)

// minimize returns an equivalent DFA with the minimum number of states,
// using Moore partition refinement. The initial partition separates states
// by their exact decision set, so multi-match semantics are preserved: two
// states merge only if they report identical match-id sets and have
// pairwise-equivalent successors on every byte.
//
// minimize is layout-preserving: the refinement itself runs on the flat
// table (FromNFA calls it before applyLayout), and a classed receiver is
// flattened, minimized, and re-compressed. Byte-class compression is a
// column quotient and commutes with this row quotient, so the order
// loses nothing.
func (d *DFA) minimize() *DFA {
	if d.classOf != nil {
		flat := &DFA{
			numStates:   d.numStates,
			start:       d.start,
			trans:       d.flattened(),
			numClasses:  regexparse.AlphabetSize,
			acceptStart: d.acceptStart,
			accepts:     d.accepts,
		}
		return flat.minimize().Compressed()
	}
	n := d.numStates
	group := make([]uint32, n)

	// Initial partition: group by decision set.
	acceptGroups := make(map[string]uint32)
	numGroups := uint32(1) // group 0 = non-accepting
	for s := 0; s < n; s++ {
		if !d.Accepting(uint32(s)) {
			group[s] = 0
			continue
		}
		key := int32sKey(d.Matches(uint32(s)))
		g, ok := acceptGroups[key]
		if !ok {
			g = numGroups
			numGroups++
			acceptGroups[key] = g
		}
		group[s] = g
	}

	// Refine: a state's signature is its group plus the groups of its 256
	// successors. Iterate until the number of groups stabilizes.
	seed := maphash.MakeSeed()
	next := make([]uint32, n)
	sig := make([]byte, 4+4*regexparse.AlphabetSize)
	for {
		buckets := make(map[uint64][]int, numGroups*2)
		var order []uint64 // deterministic group numbering
		for s := 0; s < n; s++ {
			binary.LittleEndian.PutUint32(sig[0:], group[s])
			base := s * regexparse.AlphabetSize
			for b := 0; b < regexparse.AlphabetSize; b++ {
				binary.LittleEndian.PutUint32(sig[4+4*b:], group[d.trans[base+b]])
			}
			h := maphash.Bytes(seed, sig)
			if _, ok := buckets[h]; !ok {
				order = append(order, h)
			}
			buckets[h] = append(buckets[h], s)
		}
		// Hash collisions would merge inequivalent states; with a 64-bit
		// hash over <2^20 states this is vanishingly unlikely, and any
		// collision is caught by the cross-engine equivalence tests.
		newNum := uint32(0)
		for _, h := range order {
			for _, s := range buckets[h] {
				next[s] = newNum
			}
			newNum++
		}
		if newNum == numGroups {
			break
		}
		numGroups = newNum
		group, next = next, group
	}

	return d.rebuild(group, int(numGroups))
}

// rebuild materializes the quotient automaton given a state→group map.
func (d *DFA) rebuild(group []uint32, numGroups int) *DFA {
	rep := make([]int, numGroups) // a representative state per group
	for i := range rep {
		rep[i] = -1
	}
	for s := 0; s < d.numStates; s++ {
		if rep[group[s]] == -1 {
			rep[group[s]] = s
		}
	}

	// Renumber groups so accepting ones form a contiguous tail, keeping
	// the fast accept test of the engine.
	perm := make([]uint32, numGroups)
	numAccept := 0
	for _, r := range rep {
		if d.Accepting(uint32(r)) {
			numAccept++
		}
	}
	acceptStart := uint32(numGroups - numAccept)
	nextPlain, nextAccept := uint32(0), acceptStart
	for g, r := range rep {
		if d.Accepting(uint32(r)) {
			perm[g] = nextAccept
			nextAccept++
		} else {
			perm[g] = nextPlain
			nextPlain++
		}
	}

	out := &DFA{
		numStates:   numGroups,
		start:       perm[group[d.start]],
		trans:       make([]uint32, numGroups*regexparse.AlphabetSize),
		numClasses:  regexparse.AlphabetSize,
		acceptStart: acceptStart,
		accepts:     make([][]int32, numAccept),
	}
	for g, r := range rep {
		base := int(perm[g]) * regexparse.AlphabetSize
		rbase := r * regexparse.AlphabetSize
		for b := 0; b < regexparse.AlphabetSize; b++ {
			out.trans[base+b] = perm[group[d.trans[rbase+b]]]
		}
		if m := d.Matches(uint32(r)); m != nil {
			out.accepts[perm[g]-acceptStart] = slices.Clone(m)
		}
	}
	return out
}

func int32sKey(ids []int32) string {
	buf := make([]byte, 4*len(ids))
	for i, id := range ids {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(id))
	}
	return string(buf)
}
