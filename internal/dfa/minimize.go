package dfa

import (
	"encoding/binary"
	"slices"

	"matchfilter/internal/regexparse"
)

// minimize returns an equivalent DFA with the minimum number of states,
// using Moore partition refinement. The initial partition separates states
// by their exact decision set, so multi-match semantics are preserved: two
// states merge only if they report identical match-id sets and have
// pairwise-equivalent successors on every byte.
//
// minimize is layout-preserving: FromNFA calls it on the flat table
// before applyLayout, and a classed receiver is flattened, minimized,
// and re-compressed. Refinement compares successors per byte class, not
// per byte: byte-class compression is a column quotient and commutes
// with this row quotient, so the k-column signatures partition states
// exactly as the 256-column ones would.
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

	// Initial partition: group by decision set, non-accepting states
	// under the empty key. Groups are numbered densely, so none is empty
	// and a round that keeps the group count has split nothing — even
	// when every state accepts.
	initial := make(map[string]uint32)
	for s := 0; s < n; s++ {
		key := int32sKey(d.Matches(uint32(s)))
		g, ok := initial[key]
		if !ok {
			g = uint32(len(initial))
			initial[key] = g
		}
		group[s] = g
	}
	numGroups := uint32(len(initial))

	// Refine: a state's signature is its group plus the groups of its
	// successors, one per byte class (bytes of one class have equal
	// columns in every state, so this is exact). Buckets are keyed on
	// the signature itself and numbered by first occurrence. Iterate
	// until the number of groups stabilizes.
	classed := d.Compressed()
	k := classed.numClasses
	next := make([]uint32, n)
	sig := make([]byte, 0, 4+4*k)
	for {
		ids := make(map[string]uint32, numGroups*2)
		for s := 0; s < n; s++ {
			sig = binary.LittleEndian.AppendUint32(sig[:0], group[s])
			for _, to := range classed.trans[s*k : (s+1)*k] {
				sig = binary.LittleEndian.AppendUint32(sig, group[to/uint32(k)])
			}
			id, ok := ids[string(sig)]
			if !ok {
				id = uint32(len(ids))
				ids[string(sig)] = id
			}
			next[s] = id
		}
		newNum := uint32(len(ids))
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
