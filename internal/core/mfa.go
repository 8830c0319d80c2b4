// Package core implements the Match Filtering Automaton (MFA), the
// paper's primary contribution: a multi-match DFA over decomposed regex
// fragments whose match stream is post-processed by a stateful filter
// engine to yield exactly the matches of the original rules.
//
// Formally (§III-A) an MFA is the 9-tuple (Q, Σ, δ, q0, Di, Dq, w, D, f):
// Q, Σ, δ, q0 and the decision structure Di, Dq come from the DFA built
// over the splitter's fragments; w, D and f are the filter program. The
// per-flow matching context is the pair (q, m) — one DFA state and one
// w-bit memory — so multiplexing many flows costs a few bytes per flow
// (§III-B).
//
// Layout-independence invariant: an MFA serves one of two
// transition-table layouts — classed (the default) or classed2 (opt-in,
// dfa.Options.Layout) — and the choice changes only memory footprint
// and load pattern, never behaviour. A flat table never reaches the scan
// loops: Compile rejects an explicit flat request, and the one MFA
// constructor converts the flat DFA of an image written by an older
// build to classed at load time. Feed produces byte-identical
// (ruleID, pos) match streams in both layouts, and the contexts
// exchanged through Runner.Context/SetContext carry plain DFA state
// numbers — never layout-internal scaled row bases or pair-table
// positions — so a context saved under one layout (or one generation of
// a hot-reloaded rule set compiled with the other) restores correctly,
// and can never resume in the middle of a classed2 byte pair.
// FlowBatcher (batch.go) preserves the same invariant: batched lockstep
// scanning reorders work across flows, never within one.
package core

import (
	"errors"
	"fmt"
	"time"

	"matchfilter/internal/dfa"
	"matchfilter/internal/filter"
	"matchfilter/internal/nfa"
	"matchfilter/internal/regexparse"
	"matchfilter/internal/splitter"
)

// Rule is one input regex and the id reported when it matches.
type Rule struct {
	Pattern *regexparse.Pattern
	ID      int32
}

// Options configures MFA compilation. The zero value is the paper's
// configuration: both decompositions enabled, safety checks on, subset
// construction without minimization.
type Options struct {
	Splitter splitter.Options
	DFA      dfa.Options
}

// BuildStats records what compilation produced, feeding the Table V and
// Figure 2/3 experiments.
type BuildStats struct {
	Split        splitter.Stats
	NumRules     int
	NumFragments int
	NFAStates    int
	DFAStates    int // the "MFA Qs" column of Table V
	MemBits      int // w
	PosRegs      int // counting-extension position registers
	Counters     int // counter registers of the bounded-repeat extension
	InternalIDs  int // |Di|
	// BuildTime is the wall-clock construction time (Figure 3).
	BuildTime time.Duration
	// SplitTime and DFATime break BuildTime down; almost all of it is
	// standard DFA construction, as §I-D claims.
	SplitTime time.Duration
	DFATime   time.Duration
	// DFABytes and FilterBytes are the memory image split of Figure 2;
	// the paper reports filters averaging under 0.2% of the image.
	DFABytes    int
	FilterBytes int
	// DFATableBytes is the transition table's share of DFABytes in its
	// actual layout (classed tables include the 256-byte class map;
	// classed2 includes the pair table plus the retained 1-byte table);
	// DFAClasses is the byte equivalence-class count and DFALayout names
	// the layout ("classed" or "classed2").
	// Exposed to telemetry so /metrics and /statsz report what the scan
	// loop is actually walking.
	DFATableBytes int
	DFAClasses    int
	DFALayout     string
}

// MemoryImageBytes is the total static image (Figure 2).
func (s BuildStats) MemoryImageBytes() int { return s.DFABytes + s.FilterBytes }

// MFA is a compiled match filtering automaton. It is immutable and safe
// for concurrent use by any number of flows; per-flow state lives in
// Runner.
type MFA struct {
	d     *dfa.DFA
	prog  *filter.Program
	stats BuildStats

	// Hot-loop views of the (always classed) DFA, cached so Runner.Feed
	// and FlowBatcher run the table walk inline. stride is the class
	// count, the 1-byte table's row width; trans2/stride2 are the
	// 2-byte-stride pair table and its row width (nil/0 unless the
	// layout is classed2). Runner.Feed branches on the layout once per
	// call, never per byte.
	trans       []uint32
	classOf     []uint8
	stride      int
	trans2      []uint32
	stride2     int
	acceptStart uint32
	accepts     [][]int32
}

// MatchFunc receives a confirmed match: the original rule id and the
// 0-based offset of the byte at which the match completed.
type MatchFunc = func(ruleID int32, pos int64)

// ErrFlatLayout is returned by Compile for a layout the MFA does not
// serve — an explicit flat request, or any value other than auto,
// classed and classed2.
var ErrFlatLayout = errors.New("core: the MFA serves only the auto, classed and classed2 table layouts")

// Compile builds the MFA for a rule set: regex splitting (Algorithm 1),
// standard subset construction over the fragments, and filter-program
// assembly.
func Compile(rules []Rule, opts Options) (*MFA, error) {
	switch opts.DFA.Layout {
	case dfa.LayoutAuto, dfa.LayoutClassed, dfa.LayoutClassed2:
	default:
		return nil, fmt.Errorf("%w (got %v)", ErrFlatLayout, opts.DFA.Layout)
	}
	startAll := time.Now()

	srules := make([]splitter.Rule, len(rules))
	for i, r := range rules {
		if r.Pattern == nil {
			return nil, fmt.Errorf("core: rule %d has nil pattern", r.ID)
		}
		srules[i] = splitter.Rule{Pattern: r.Pattern, RuleID: r.ID}
	}
	res, err := splitter.Split(srules, opts.Splitter)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	splitTime := time.Since(startAll)

	nfaRules := make([]nfa.Rule, len(res.Fragments))
	for i, f := range res.Fragments {
		nfaRules[i] = nfa.Rule{Pattern: f.Pattern, MatchID: int(f.InternalID)}
	}
	n, err := nfa.Build(nfaRules)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	startDFA := time.Now()
	d, err := dfa.FromNFA(n, opts.DFA)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	dfaTime := time.Since(startDFA)

	prog := res.Program()
	m := newMFA(d, prog, BuildStats{
		Split:        res.Stats,
		NumRules:     len(rules),
		NumFragments: len(res.Fragments),
		NFAStates:    n.NumStates(),
		MemBits:      res.MemBits,
		PosRegs:      res.NumRegs,
		SplitTime:    splitTime,
		DFATime:      dfaTime,
	})
	m.stats.BuildTime = time.Since(startAll)
	return m, nil
}

// newMFA is the one MFA constructor, shared by Compile and the image
// decoder. It is the only place a flat DFA is handled: one decoded from
// an MFDFA1 image, or an MFDFA2 image with layout code 0 (both written
// by older builds), is converted to classed here (Compressed returns
// classed and classed2 DFAs unchanged), so the scan loops see classed
// or classed2 tables only. stats carries the caller's construction
// figures; the image and table fields are filled in here.
func newMFA(d *dfa.DFA, prog *filter.Program, stats BuildStats) *MFA {
	d = d.Compressed()
	trans, classOf, stride := d.ScanTable()
	trans2, stride2 := d.PairTable()
	stats.DFAStates = d.NumStates()
	stats.Counters = prog.NumCounters()
	stats.InternalIDs = prog.NumIDs() - 1
	stats.DFABytes = d.MemoryImageBytes()
	stats.FilterBytes = prog.MemoryImageBytes()
	stats.DFATableBytes = d.TableBytes()
	stats.DFAClasses = d.NumClasses()
	stats.DFALayout = d.Layout().String()
	return &MFA{
		d:           d,
		prog:        prog,
		stats:       stats,
		trans:       trans,
		classOf:     classOf,
		stride:      stride,
		trans2:      trans2,
		stride2:     stride2,
		acceptStart: d.AcceptStart(),
		accepts:     d.AcceptSets(),
	}
}

// Stats returns the compilation statistics.
func (m *MFA) Stats() BuildStats { return m.stats }

// Program returns the filter program (w, D, f of the 9-tuple).
func (m *MFA) Program() *filter.Program { return m.prog }

// DFA returns the character DFA (Q, Σ, δ, q0, Di, Dq of the 9-tuple).
func (m *MFA) DFA() *dfa.DFA { return m.d }

// Runner is one flow's matching context: the (q, m) pair of §III-B, plus
// the position registers of the counting extension and the counter
// registers of the bounded-repeat extension when the pattern set uses
// them.
type Runner struct {
	mfa   *MFA
	state uint32 // DFA state q, a plain state number in every layout
	pos   int64  // bytes consumed so far
	mem   filter.Memory
	regs  filter.Registers
	ctrs  filter.Counters
}

// NewRunner returns a runner positioned at the start of a fresh flow,
// with DFA state q0, all-zero filter memory and unset registers.
func (m *MFA) NewRunner() *Runner {
	return &Runner{
		mfa:   m,
		state: m.d.Start(),
		mem:   m.prog.NewMemory(),
		regs:  m.prog.NewRegisters(),
		ctrs:  m.prog.NewCounters(),
	}
}

// Reset rewinds the runner for a new flow.
func (r *Runner) Reset() {
	r.state, r.pos = r.mfa.d.Start(), 0
	r.mem.Reset()
	r.regs.Reset()
	r.ctrs.Reset()
}

// Pos returns the number of bytes consumed so far.
func (r *Runner) Pos() int64 { return r.pos }

// Context returns the flow's saved state: the DFA state and copies of the
// filter memory, position registers and counter state (regs and ctrs are
// nil when the pattern set uses no counting gaps or counters). Together
// with Pos these fully capture parsing state, so multiplexed flows need
// only store this tuple (§III-B).
func (r *Runner) Context() (state uint32, mem filter.Memory, regs filter.Registers, ctrs filter.Counters) {
	return r.state, r.mem.Clone(), r.regs.Clone(), r.ctrs.Clone()
}

// ErrBadContext is returned (wrapped) by SetContext when a saved flow
// context cannot belong to this automaton.
var ErrBadContext = errors.New("core: invalid flow context")

// SetContext restores a previously saved flow context, validating it
// first: a DFA state outside the automaton, a negative position,
// memory/register/counter images wider than this automaton's, or a
// counter base outside [0, pos] are rejected with an error wrapping
// ErrBadContext and the runner Reset to start-of-flow — a corrupted or
// cross-generation context must never reach the inlined Feed loop, where
// an out-of-range state would index the transition table out of bounds
// and panic, and a counter based beyond the restore position would break
// the record path's window arithmetic. Shorter or nil memory, register
// and counter images are accepted as zero-extended: the runner's own
// state is Reset before copying, so stale bits from its previous flow
// cannot survive into the restored one.
func (r *Runner) SetContext(state uint32, mem filter.Memory, regs filter.Registers, ctrs filter.Counters, pos int64) error {
	if state >= uint32(r.mfa.stats.DFAStates) || pos < 0 ||
		len(mem) > len(r.mem) || len(regs) > len(r.regs) || len(ctrs) > len(r.ctrs) {
		r.Reset()
		return fmt.Errorf("%w: state %d (of %d), pos %d, mem %d/%d words, regs %d/%d, ctrs %d/%d",
			ErrBadContext, state, r.mfa.stats.DFAStates, pos,
			len(mem), len(r.mem), len(regs), len(r.regs), len(ctrs), len(r.ctrs))
	}
	if err := r.mfa.prog.ValidateCounters(ctrs, pos); err != nil {
		r.Reset()
		return fmt.Errorf("%w: %v", ErrBadContext, err)
	}
	r.mem.Reset()
	copy(r.mem, mem)
	r.regs.Reset()
	copy(r.regs, regs)
	r.ctrs.Reset()
	copy(r.ctrs, ctrs)
	r.state, r.pos = state, pos
	return nil
}

// Feed advances the flow over data. Every possible match from the DFA is
// passed through the filter; onMatch is invoked only for confirmed
// matches of original rules. The DFA walk is inlined here — with the
// table layout resolved once per call, not per byte — so the composite
// engine's hot loop matches a bare DFA until a possible match needs
// filtering: one load from the always-cached 256-byte class map plus one
// table load per byte on the classed layout. The classed2 layout walks
// the δ² pair table (one dependent load per two bytes), taking the slow
// path only for pairs that end accepting or cross an accepting mid
// state, and hands an odd-length chunk's last byte to the classed loop.
func (r *Runner) Feed(data []byte, onMatch MatchFunc) {
	m := r.mfa
	trans, classOf := m.trans, m.classOf
	k := uint32(m.stride)
	state, pos := r.state, r.pos
	if trans2 := m.trans2; trans2 != nil {
		s2 := uint32(m.stride2)
		scaledAccept2 := m.acceptStart * s2
		st2 := state * s2
		n := len(data) &^ 1
		for i := 0; i < n; i += 2 {
			nxt := trans2[st2+uint32(classOf[data[i]])*k+uint32(classOf[data[i+1]])]
			if nxt >= scaledAccept2 {
				nxt = r.pairSlow(st2/s2, data[i], data[i+1], pos, onMatch)
			}
			st2 = nxt
			pos += 2
		}
		state = st2 / s2
		data = data[n:] // odd tail: at most one 1-byte classed step
	}
	// Classed tables hold pre-scaled row bases (see dfa.ScanTable): the
	// walk is a single add per byte; state numbers are recovered only at
	// accept events and at the end of the call.
	st := state * k
	scaledAccept := m.acceptStart * k
	for i := 0; i < len(data); i++ {
		st = trans[st+uint32(classOf[data[i]])]
		if st >= scaledAccept {
			r.accept(st/k, pos, onMatch)
		}
		pos++
	}
	r.state, r.pos = st/k, pos
}

// accept runs the filter program over the decision set of accepting
// state s, reached at byte offset pos, and reports every confirmed
// match. It is the one accept path of all scan loops: Feed, the classed2
// pair slow path and the FlowBatcher lockstep loops.
func (r *Runner) accept(s uint32, pos int64, onMatch MatchFunc) {
	m := r.mfa
	for _, id := range m.accepts[s-m.acceptStart] {
		if ruleID, ok := m.prog.ApplyAll(r.mem, r.regs, r.ctrs, id, pos); ok {
			onMatch(ruleID, pos)
		}
	}
}

// pairSlow replays one classed2 pair through the 1-byte table, running
// the filter program at the exact offset of each accepting state the
// pair visits. It is the cold path behind the pair loop's single accept
// compare; state is a plain state number, pos the offset of b1, and the
// return value is the resulting pair-row base.
func (r *Runner) pairSlow(state uint32, b1, b2 byte, pos int64, onMatch MatchFunc) uint32 {
	m := r.mfa
	k := uint32(m.stride)
	scaledAccept := m.acceptStart * k
	mid := m.trans[state*k+uint32(m.classOf[b1])]
	if mid >= scaledAccept {
		r.accept(mid/k, pos, onMatch)
	}
	fin := m.trans[mid+uint32(m.classOf[b2])]
	if fin >= scaledAccept {
		r.accept(fin/k, pos+1, onMatch)
	}
	return fin / k * uint32(m.stride2)
}

// FeedCount advances the flow and returns only the number of confirmed
// matches; the benchmark loop, free of callback allocation.
func (r *Runner) FeedCount(data []byte) int64 {
	var count int64
	r.Feed(data, func(int32, int64) { count++ })
	return count
}

// MatchEvent records one confirmed match.
type MatchEvent struct {
	RuleID int32
	Pos    int64
}

// Run scans data as one fresh flow and returns all confirmed matches in
// order; a convenience for tests and one-shot scans.
func (m *MFA) Run(data []byte) []MatchEvent {
	var out []MatchEvent
	r := m.NewRunner()
	r.Feed(data, func(id int32, pos int64) {
		out = append(out, MatchEvent{RuleID: id, Pos: pos})
	})
	return out
}
