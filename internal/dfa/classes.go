package dfa

import "fmt"

// Byte-class (alphabet equivalence-class) compression of the transition
// table. Two input bytes are equivalent iff every state maps them to the
// same successor; security pattern sets distinguish far fewer than 256
// byte behaviours (case-folded letters, digits, the handful of separator
// bytes the rules mention, and "everything else"), so the 256-wide flat
// rows are mostly duplicate columns. The classed layout stores the
// quotient: a 256-byte class map plus a numStates × numClasses table.
// Scanning pays one extra L1-resident load per byte
// (trans[st+classOf[b]] instead of trans[state*256+b]) in exchange for a
// table that is typically 5–20× smaller and therefore actually cacheable
// as state counts grow — the Hyperflex observation that cache-conscious
// layout, not instruction count, dominates software DPI throughput.
//
// Classed table entries are PRE-SCALED: they store next*numClasses, the
// row base of the successor, not the state number itself. The per-byte
// step is then a single add (st + classOf[b]) with no multiply on the
// loop-carried dependency chain, matching the flat loop's shift. Every
// API that exposes state numbers (Next, State/SetState, Matches, the
// wire format) converts at the boundary, so state numbering stays a
// property of the automaton, never of the layout.

// Layout selects the transition-table representation of a DFA.
type Layout uint8

const (
	// LayoutAuto is the default and resolves to LayoutClassed: a classed
	// table is never larger than the flat one plus the 256-byte class
	// map, so there is no rule set for which flat is the smaller choice.
	LayoutAuto Layout = iota
	// LayoutFlat stores the full numStates × 256 row-major table:
	// one load per input byte. Only the paper's bare-DFA, HFA and XFA
	// baselines request it; the MFA serves classed tables only.
	LayoutFlat
	// LayoutClassed stores a 256-byte class map and a numStates ×
	// numClasses table: two dependent loads per input byte, the first of
	// which hits a single always-cached 256-byte array.
	LayoutClassed
	// LayoutClassed2 extends the classed layout with a 2-byte-stride
	// table: a numStates × numClasses² table whose entry for (state,
	// class₁, class₂) is the state reached after consuming both bytes,
	// so the loop-carried dependency chain is one table load per *two*
	// input bytes. The 1-byte classed table is kept alongside it for
	// odd-length tails at Feed-chunk boundaries and for the rare
	// accepting pairs (see pairtable.go). Explicit opt-in only: the pair
	// table is numClasses× larger than the classed one, so LayoutAuto
	// never chooses it, and sets whose pair table would exceed
	// Classed2MaxTableBytes fall back to LayoutClassed (check the built
	// DFA's Layout()).
	LayoutClassed2
)

// String names the layout for stats, telemetry and reports.
func (l Layout) String() string {
	switch l {
	case LayoutAuto:
		return "auto"
	case LayoutFlat:
		return "flat"
	case LayoutClassed:
		return "classed"
	case LayoutClassed2:
		return "classed2"
	default:
		return "unknown"
	}
}

// ParseLayout resolves a layout name as used by command-line flags and
// reports ("auto", "flat", "classed", "classed2").
func ParseLayout(s string) (Layout, error) {
	switch s {
	case "", "auto":
		return LayoutAuto, nil
	case "flat":
		return LayoutFlat, nil
	case "classed":
		return LayoutClassed, nil
	case "classed2":
		return LayoutClassed2, nil
	}
	return LayoutAuto, fmt.Errorf("dfa: unknown layout %q (want auto, flat, classed or classed2)", s)
}

// computeClasses partitions the byte alphabet into equivalence classes
// over a flat (256-wide) transition table: classOf[b1] == classOf[b2]
// iff trans[s*256+b1] == trans[s*256+b2] for every state s. Classes are
// numbered deterministically by first occurrence (classOf[0] == 0), so
// identical automata always produce identical maps.
//
// The partition is refined one state row at a time: after processing row
// s, two bytes share a class iff they agreed on rows 0..s. Each step is
// exact, so a single pass over all rows yields the full equivalence; the
// loop exits early once all 256 classes are distinct.
func computeClasses(trans []uint32, numStates int) (classOf []uint8, numClasses int) {
	cur := make([]int, 256) // all bytes start equivalent
	next := make([]int, 256)
	numClasses = 1
	refined := make(map[uint64]int, 64)
	for s := 0; s < numStates && numClasses < 256; s++ {
		row := trans[s*256 : (s+1)*256]
		clear(refined)
		n := 0
		for b := 0; b < 256; b++ {
			key := uint64(cur[b])<<32 | uint64(row[b])
			id, ok := refined[key]
			if !ok {
				id = n
				n++
				refined[key] = id
			}
			next[b] = id
		}
		cur, next = next, cur
		numClasses = n
	}
	classOf = make([]uint8, 256)
	for b, c := range cur {
		classOf[b] = uint8(c)
	}
	return classOf, numClasses
}

// Compressed returns the byte-class form of a flat-layout DFA (a classed
// or classed2 receiver is returned as is). The successor function is
// preserved exactly — for every state and byte, Next is unchanged — so
// match streams are byte-for-byte identical; only the storage layout
// differs. Decision sets are shared with the receiver, which stays
// valid: both views are immutable. The MFA uses it to serve flat images
// written by older builds as classed.
func (d *DFA) Compressed() *DFA {
	if d.classOf != nil {
		return d
	}
	classOf, k := computeClasses(d.trans, d.numStates)
	// One representative byte per class; any member works because the
	// class is defined by column equality.
	rep := make([]int, k)
	for b := 255; b >= 0; b-- {
		rep[classOf[b]] = b
	}
	ct := make([]uint32, d.numStates*k)
	for s := 0; s < d.numStates; s++ {
		row := d.trans[s*256 : (s+1)*256]
		out := ct[s*k : (s+1)*k]
		for c, b := range rep {
			out[c] = row[b] * uint32(k) // pre-scaled: successor row base
		}
	}
	return &DFA{
		numStates:   d.numStates,
		start:       d.start,
		trans:       ct,
		numClasses:  k,
		classOf:     classOf,
		acceptStart: d.acceptStart,
		accepts:     d.accepts,
	}
}

// flattened returns a flat 256-wide row-major table equivalent to the
// receiver's, expanding a classed table through its class map and
// unscaling its pre-scaled entries back to state numbers. For a flat DFA
// it returns the table itself (shared, read-only).
func (d *DFA) flattened() []uint32 {
	if d.classOf == nil {
		return d.trans
	}
	k := uint32(d.numClasses)
	out := make([]uint32, d.numStates*256)
	for s := 0; s < d.numStates; s++ {
		row := d.trans[s*d.numClasses : (s+1)*d.numClasses]
		flat := out[s*256 : (s+1)*256]
		for b := 0; b < 256; b++ {
			flat[b] = row[d.classOf[b]] / k
		}
	}
	return out
}

// applyLayout resolves the requested layout against the flat automaton
// the constructor and minimizer produce.
func (d *DFA) applyLayout(l Layout) *DFA {
	switch l {
	case LayoutFlat:
		return d
	case LayoutClassed2:
		// Falls back to classed when the pair table would exceed
		// Classed2MaxTableBytes; Layout() on the result tells which.
		return d.Compressed().withPairs()
	default: // LayoutAuto, LayoutClassed
		return d.Compressed()
	}
}
