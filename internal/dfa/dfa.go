// Package dfa implements subset construction from an NFA into a
// transition-table deterministic automaton with multi-match decision sets
// (the Dq: Q → 2^Di component of the paper's 9-tuple), plus a fast
// matching engine and an optional minimization pass.
//
// Three table layouts are supported, selected by Options.Layout:
//
//   - Flat: a single []uint32 indexed by state*256+byte, so advancing
//     the automaton is one load per input byte. Only the paper's
//     bare-DFA, HFA and XFA baselines build it; the MFA serves classed
//     tables and converts flat images to classed on load (Compressed).
//   - Classed (the default via LayoutAuto): a 256-byte equivalence-class
//     map plus a numStates×numClasses table indexed by
//     state*numClasses+classOf[byte] — two dependent loads per byte, but
//     a table typically 5–20× smaller that stays cache-resident as state
//     counts grow. See classes.go.
//   - Classed2 (explicit opt-in): the classed layout plus a
//     numStates×numClasses² pair table encoding δ², so the loop-carried
//     dependency chain is one table load per two input bytes, with a
//     1-byte tail step at chunk boundaries. See pairtable.go.
//
// Layout-independence invariant: every layout encodes the identical
// successor function and produces byte-for-byte identical (id, pos)
// match streams; only memory footprint and load pattern differ. All
// APIs that cross the package boundary — Next, Runner.State/SetState,
// Matches, and the wire format — speak plain state numbers, never
// layout-internal scaled row bases, so a context saved from a flat
// engine restores into a classed or classed2 one built from the same
// NFA (and vice versa), and contexts can never encode a position inside
// a classed2 byte pair. In every layout states are renumbered so that
// all accepting states form a contiguous tail, making the per-byte "did
// we match" test a single integer compare.
//
// Concurrency: a *DFA and the Engine wrapping it are immutable after
// construction and safe for unlimited concurrent readers. All mutable
// scan state lives in Runner, which serves exactly one flow at a time.
package dfa

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"matchfilter/internal/nfa"
	"matchfilter/internal/regexparse"
)

// DefaultMaxStates is the construction budget used when Options.MaxStates
// is zero. A state costs 1 KiB of transition table, so the default bounds
// the table at 128 MiB — comfortably above every constructible pattern
// set shipped in internal/patterns, and exceeded (by design) by the
// B217p-style sets.
const DefaultMaxStates = 1 << 17

// ErrTooManyStates is returned (wrapped) when subset construction exceeds
// the state budget; the paper's Table V reports exactly this outcome for
// B217p ("could not be constructed as a DFA").
var ErrTooManyStates = errors.New("dfa: state budget exceeded")

// Options configures construction.
type Options struct {
	// MaxStates caps subset construction; 0 means DefaultMaxStates.
	MaxStates int
	// Minimize runs a Moore partition-refinement pass after construction.
	// Distinct match-id sets are kept distinguishable, so minimization
	// never merges states that report different matches.
	Minimize bool
	// Layout selects the transition-table representation. The zero value
	// (LayoutAuto) applies byte-class compression; LayoutFlat forces the
	// paper's one-load-per-byte table for the baselines that pin it.
	Layout Layout
}

// DFA is a deterministic multi-match automaton. It is immutable after
// construction and safe for concurrent use by any number of goroutines;
// per-flow scan state lives in Runner. The slices returned by accessors
// are shared views that callers must treat as read-only.
type DFA struct {
	numStates int
	start     uint32
	// trans is the row-major transition table: numStates*256 for the
	// flat layout, numStates*numClasses for the classed layout. Classed
	// entries are pre-scaled row bases (next*numClasses, see classes.go);
	// flat entries are plain state numbers.
	trans []uint32
	// numClasses is the row stride: 256 for flat, the byte
	// equivalence-class count for classed.
	numClasses int
	// classOf maps each input byte to its equivalence class; nil marks
	// the flat layout (the discriminant every hot loop branches on once
	// per Feed call, never per byte).
	classOf []uint8
	// trans2 is the optional 2-byte-stride pair table
	// (numStates×numClasses², entries are pre-scaled pair-row bases,
	// possibly carrying pairAcceptFlag — see pairtable.go); nil unless
	// the layout is classed2. When present, trans and classOf are also
	// kept for the odd-byte tail and mid-pair accept paths.
	trans2 []uint32
	// stride2 is the pair-table row stride numClasses²; 0 unless classed2.
	stride2     int
	acceptStart uint32    // states >= acceptStart are accepting
	accepts     [][]int32 // match ids for states >= acceptStart, indexed by state-acceptStart
}

// FromNFA runs subset construction on n. Construction always builds the
// flat table first (minimization also operates on it); the requested
// layout is applied as a final repacking step, so layout choice can
// never change the automaton's language or decision sets.
func FromNFA(n *nfa.NFA, opts Options) (*DFA, error) {
	maxStates := opts.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}

	c := newConstructor(n, maxStates)
	if err := c.run(); err != nil {
		return nil, err
	}
	d := c.finish()
	if opts.Minimize {
		d = d.minimize()
	}
	return d.applyLayout(opts.Layout), nil
}

// constructor holds the working state of subset construction.
//
// Construction runs over alphabet blocks, not bytes: the 256 bytes are
// refined by every distinct transition class of the NFA, so each class
// is a union of blocks and all bytes of a block share one successor in
// every DFA state. Blocks are numbered by the first byte they contain
// and each state's successors are interned block by block in that
// order, so new states appear in exactly the order a per-byte loop
// would find them.
type constructor struct {
	n         *nfa.NFA
	maxStates int

	closer      *nfa.Closer
	blockOf     [regexparse.AlphabetSize]uint8
	numBlocks   int
	transBlocks [][][]uint8 // per NFA state and transition: the blocks its class covers

	subset map[string]uint32 // closure key -> DFA state
	queue  [][]nfa.StateID   // closures of unexplored states, in state order
	key    []byte            // closure key scratch

	trans   []uint32  // per explored state: numBlocks targets
	accepts [][]int32 // per state: sorted match ids (nil if none)
}

func newConstructor(n *nfa.NFA, maxStates int) *constructor {
	c := &constructor{
		n:         n,
		maxStates: maxStates,
		closer:    n.NewCloser(),
		subset:    make(map[string]uint32, 1024),
	}
	c.alphabetBlocks()
	return c
}

// alphabetBlocks computes the common refinement of the 256 bytes by
// every distinct transition class, numbering blocks by first byte, and
// the block list of each transition.
func (c *constructor) alphabetBlocks() {
	covers := map[regexparse.Class][]uint8{}
	for _, st := range c.n.States {
		for _, t := range st.Trans {
			covers[t.Class] = nil
		}
	}
	c.numBlocks = 1
	for cl := range covers {
		// Split every block by membership in cl, renumbering by first
		// byte: ids[2*block+in] is the refined block of that half.
		var ids [2 * regexparse.AlphabetSize]int
		n := 0
		for b := range regexparse.AlphabetSize {
			half := 2 * int(c.blockOf[b])
			if cl.Contains(byte(b)) {
				half++
			}
			if ids[half] == 0 {
				n++
				ids[half] = n
			}
			c.blockOf[b] = uint8(ids[half] - 1)
		}
		c.numBlocks = n
	}
	for cl := range covers {
		var blocks []uint8
		next := 0 // blocks are met in id order when scanning bytes
		for b := range regexparse.AlphabetSize {
			if k := int(c.blockOf[b]); k == next {
				next++
				if cl.Contains(byte(b)) {
					blocks = append(blocks, uint8(k))
				}
			}
		}
		covers[cl] = blocks
	}
	c.transBlocks = make([][][]uint8, len(c.n.States))
	for s, st := range c.n.States {
		c.transBlocks[s] = make([][]uint8, len(st.Trans))
		for i, t := range st.Trans {
			c.transBlocks[s][i] = covers[t.Class]
		}
	}
}

// intern returns the DFA state for a closure, creating it if new. The
// closure is copied only when it starts a new state.
func (c *constructor) intern(closure []nfa.StateID) (uint32, error) {
	c.key = appendKey(c.key[:0], closure)
	if id, ok := c.subset[string(c.key)]; ok {
		return id, nil
	}
	if len(c.accepts) >= c.maxStates {
		return 0, fmt.Errorf("%w: more than %d states", ErrTooManyStates, c.maxStates)
	}
	id := uint32(len(c.accepts))
	c.subset[string(c.key)] = id
	c.accepts = append(c.accepts, matchSet(c.n, closure))
	c.queue = append(c.queue, slices.Clone(closure))
	return id, nil
}

func (c *constructor) run() error {
	if _, err := c.intern(c.closer.Closure(nil, c.n.Start)); err != nil {
		return err
	}

	buckets := make([][]nfa.StateID, c.numBlocks)
	var next []nfa.StateID
	var rawKey []byte
	local := make(map[string]uint32, c.numBlocks)
	for len(c.queue) > 0 {
		closure := c.queue[0]
		c.queue = c.queue[1:]

		for i := range buckets {
			buckets[i] = buckets[i][:0]
		}
		for _, s := range closure {
			for i, t := range c.n.States[s].Trans {
				for _, k := range c.transBlocks[s][i] {
					buckets[k] = append(buckets[k], t.To)
				}
			}
		}
		// Blocks whose raw target lists are equal share a successor;
		// most blocks of a state see only its dot-loop targets, so the
		// cache skips most closures.
		clear(local)
		for _, targets := range buckets {
			rawKey = appendKey(rawKey[:0], targets)
			id, ok := local[string(rawKey)]
			if !ok {
				next = c.closer.Closure(next[:0], targets...)
				var err error
				if id, err = c.intern(next); err != nil {
					return err
				}
				local[string(rawKey)] = id
			}
			c.trans = append(c.trans, id)
		}
	}
	return nil
}

// finish renumbers states so accepting ones form a contiguous tail and
// expands the block-wide rows into one flat 256-wide array.
func (c *constructor) finish() *DFA {
	numStates := len(c.accepts)
	perm := make([]uint32, numStates) // old -> new
	numAccept := 0
	for _, m := range c.accepts {
		if m != nil {
			numAccept++
		}
	}
	acceptStart := uint32(numStates - numAccept)
	nextPlain, nextAccept := uint32(0), acceptStart
	for s, m := range c.accepts {
		if m == nil {
			perm[s] = nextPlain
			nextPlain++
		} else {
			perm[s] = nextAccept
			nextAccept++
		}
	}

	d := &DFA{
		numStates:   numStates,
		start:       perm[0], // state 0 was interned first from the start closure
		trans:       make([]uint32, numStates*regexparse.AlphabetSize),
		numClasses:  regexparse.AlphabetSize,
		acceptStart: acceptStart,
		accepts:     make([][]int32, numAccept),
	}
	for old, m := range c.accepts {
		row := c.trans[old*c.numBlocks : (old+1)*c.numBlocks]
		flat := d.trans[int(perm[old])*regexparse.AlphabetSize:][:regexparse.AlphabetSize]
		for b, k := range c.blockOf {
			flat[b] = perm[row[k]]
		}
		if m != nil {
			d.accepts[perm[old]-acceptStart] = m
		}
	}
	return d
}

// matchSet returns the sorted, deduplicated match ids of a closure, or nil
// when the closure is not accepting.
func matchSet(n *nfa.NFA, closure []nfa.StateID) []int32 {
	var ids []int32
	for _, s := range closure {
		for _, id := range n.States[s].Matches {
			ids = append(ids, int32(id))
		}
	}
	if ids == nil {
		return nil
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// appendKey appends a state list to buf as map-key bytes.
func appendKey(buf []byte, states []nfa.StateID) []byte {
	for _, s := range states {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s))
	}
	return buf
}

// NumStates returns the number of DFA states, the "DFA Qs" column of
// Table V.
func (d *DFA) NumStates() int { return d.numStates }

// Start returns the initial state.
func (d *DFA) Start() uint32 { return d.start }

// Next returns δ(state, c), resolving the table layout per call. Hot
// loops should not use it; they read the layout once via ScanTable (or
// for the dfa package itself, the specialized loops in Runner.Feed).
func (d *DFA) Next(state uint32, c byte) uint32 {
	if d.classOf == nil {
		return d.trans[int(state)*regexparse.AlphabetSize+int(c)]
	}
	return d.trans[int(state)*d.numClasses+int(d.classOf[c])] / uint32(d.numClasses)
}

// Accepting reports whether a state has a non-empty decision set.
func (d *DFA) Accepting(state uint32) bool { return state >= d.acceptStart }

// Matches returns the decision set Dq(state), nil for non-accepting
// states. The returned slice must not be modified.
func (d *DFA) Matches(state uint32) []int32 {
	if state < d.acceptStart {
		return nil
	}
	return d.accepts[state-d.acceptStart]
}

// TransitionTable returns a flat row-major transition table
// (NumStates×256) regardless of layout: for a flat DFA it is the table
// itself (shared — callers must treat it as read-only), for a classed
// DFA it is a freshly materialized expansion through the class map. The
// HFA and XFA baselines repack it into their own layouts; they compile
// with LayoutFlat so the expansion copy never happens in practice.
func (d *DFA) TransitionTable() []uint32 { return d.flattened() }

// ScanTable returns the hot-loop view of the transition function: the
// raw table, the byte→class map, and the row stride. classOf is nil for
// the flat layout (stride 256, index state*256+b, entries are state
// numbers). For the classed layout the walk runs over pre-scaled row
// bases: st starts at state*stride, steps as st = trans[st+classOf[b]],
// and st/stride recovers the state number (for accept-set indexing and
// context save/restore). All three are shared, read-only views;
// composite engines (the MFA) cache them once and inline the walk.
func (d *DFA) ScanTable() (trans []uint32, classOf []uint8, stride int) {
	return d.trans, d.classOf, d.numClasses
}

// Layout reports the table representation actually applied: LayoutFlat,
// LayoutClassed, or LayoutClassed2 (never LayoutAuto — Auto resolves at
// construction time; a LayoutClassed2 request whose pair table exceeds
// Classed2MaxTableBytes resolves to LayoutClassed).
func (d *DFA) Layout() Layout {
	switch {
	case d.classOf == nil:
		return LayoutFlat
	case d.trans2 != nil:
		return LayoutClassed2
	default:
		return LayoutClassed
	}
}

// NumClasses returns the number of byte equivalence classes, which is
// also the table's row stride: 256 for the flat layout.
func (d *DFA) NumClasses() int { return d.numClasses }

// ClassMap returns the 256-entry byte→class map of a classed DFA, or
// nil for the flat layout. Shared, read-only.
func (d *DFA) ClassMap() []uint8 { return d.classOf }

// TableBytes returns the size of the transition table(s) plus, for the
// classed layouts, the class map — the footprint the layout choice
// trades against scan-loop load count. For classed2 this includes both
// the pair table and the retained 1-byte table.
func (d *DFA) TableBytes() int {
	n := (len(d.trans) + len(d.trans2)) * 4
	if d.classOf != nil {
		n += len(d.classOf)
	}
	return n
}

// PairTable returns the hot-loop view of the classed2 pair table: the
// δ² table and its row stride numClasses². Both are nil/0 unless
// Layout() == LayoutClassed2. Entries are pre-scaled pair-row bases
// (next×stride2), with bit 31 set when the pair's intermediate state is
// accepting; a walk therefore steps st2 = trans2[st2 +
// classOf[b1]*NumClasses + classOf[b2]] and treats any entry ≥
// AcceptStart×stride2 as "consult the 1-byte table for exact match
// offsets" (see pairtable.go). Shared, read-only.
func (d *DFA) PairTable() (trans2 []uint32, stride2 int) {
	return d.trans2, d.stride2
}

// AcceptStart returns the first accepting state id; states in
// [AcceptStart, NumStates) are exactly the accepting states.
func (d *DFA) AcceptStart() uint32 { return d.acceptStart }

// AcceptSets returns the decision sets of the accepting states, indexed
// by state-AcceptStart. Shared, read-only: composite engines use it to
// inline the scan loop without a per-state method call.
func (d *DFA) AcceptSets() [][]int32 { return d.accepts }

// MemoryImageBytes returns the contiguous memory needed for matching:
// the transition table in its actual layout (plus class map), and the
// accept-set arrays with their index.
func (d *DFA) MemoryImageBytes() int {
	total := d.TableBytes()
	total += len(d.accepts) * 8 // offset/length index per accepting state
	for _, m := range d.accepts {
		total += len(m) * 4
	}
	return total
}
