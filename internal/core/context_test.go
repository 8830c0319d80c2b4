package core

// Flow-context save/restore correctness: SetContext is the one door
// through which external state (a serialized flow table, a handoff
// between processes, a corrupted or hostile snapshot) re-enters the
// matcher, so it must validate what it is given and must never leave the
// runner with residue from its previous flow.

import (
	"errors"
	"fmt"
	"testing"

	"matchfilter/internal/trace"
)

func feedEvents(r *Runner, data []byte) []event {
	var out []event
	r.Feed(data, func(id int32, pos int64) { out = append(out, event{id, pos}) })
	return out
}

// Corrupt contexts are rejected with ErrBadContext and leave the runner
// serviceable from the initial state.
func TestSetContextRejectsCorrupt(t *testing.T) {
	m := compileMFA(t, countingOpts(), "attack.*payload", "aa.{3,}bb")
	states := uint32(m.Stats().DFAStates)

	cases := []struct {
		name string
		call func(r *Runner) error
	}{
		{"state out of range", func(r *Runner) error {
			return r.SetContext(states, nil, nil, nil, 0)
		}},
		{"state far out of range", func(r *Runner) error {
			return r.SetContext(^uint32(0), nil, nil, nil, 0)
		}},
		{"negative position", func(r *Runner) error {
			return r.SetContext(0, nil, nil, nil, -1)
		}},
		{"oversized memory", func(r *Runner) error {
			_, mem, _, _ := r.Context()
			return r.SetContext(0, append(mem, 0), nil, nil, 0)
		}},
		{"oversized registers", func(r *Runner) error {
			_, _, regs, _ := r.Context()
			return r.SetContext(0, nil, append(regs, 0), nil, 0)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := m.NewRunner()
			err := tc.call(r)
			if !errors.Is(err, ErrBadContext) {
				t.Fatalf("err = %v, want ErrBadContext", err)
			}
			// The runner was reset, not wedged: it still matches from q0.
			evs := feedEvents(r, []byte("attack ... payload"))
			if len(evs) != 1 || evs[0].id != 1 {
				t.Fatalf("runner unusable after rejected context: %v", evs)
			}
		})
	}

	// A context a runner actually produced is always accepted.
	r := m.NewRunner()
	r.Feed([]byte("attack at"), nil)
	state, mem, regs, ctrs := r.Context()
	if err := m.NewRunner().SetContext(state, mem, regs, ctrs, r.Pos()); err != nil {
		t.Fatalf("genuine context rejected: %v", err)
	}
}

// Restoring a context must REPLACE the runner's state, not merge with
// it: a short (or nil) memory image means "those bits are zero", so a
// runner that had progressed must forget that progress entirely.
func TestSetContextClearsStaleState(t *testing.T) {
	m := compileMFA(t, Options{}, "ab.*cd")

	// Advance past the prefix: the split's test-bit for "ab" is now set.
	r := m.NewRunner()
	r.Feed([]byte("ab"), nil)

	// Restore a start-of-flow context (fresh runner's own snapshot, with
	// nil mem — the sparse spelling of "all zero").
	fresh := m.NewRunner()
	state, _, _, _ := fresh.Context()
	if err := r.SetContext(state, nil, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	if evs := feedEvents(r, []byte("cd")); len(evs) != 0 {
		t.Fatalf("stale prefix memory survived SetContext: %v", evs)
	}
	// The restored runner still works as a fresh flow.
	if evs := feedEvents(r, []byte("ab..cd")); len(evs) != 1 {
		t.Fatalf("restored runner broken: %v", evs)
	}
}

// Same property for counting state: position registers from the old flow
// must not leak through a restore that doesn't mention them.
func TestSetContextClearsStaleRegisters(t *testing.T) {
	m := compileMFA(t, countingOpts(), "aa.{3,}bb")

	r := m.NewRunner()
	r.Feed([]byte("aaxxxxx"), nil) // register armed, gap satisfied

	fresh := m.NewRunner()
	state, _, _, _ := fresh.Context()
	if err := r.SetContext(state, nil, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	if evs := feedEvents(r, []byte("bb")); len(evs) != 0 {
		t.Fatalf("stale position register survived SetContext: %v", evs)
	}
	if evs := feedEvents(r, []byte("aaxxxbb")); len(evs) != 1 {
		t.Fatalf("restored runner broken: %v", evs)
	}
}

// A context saved under one table layout restores into a runner of
// another: state numbering and filter state are layout-independent,
// which is what lets a hot reload swap a classed build for a classed2
// one (or an engine loaded from an older flat image) under live flows
// that reset onto it.
func TestCrossLayoutContextRoundTrip(t *testing.T) {
	sources := []string{"attack.*payload", "evil(roo|admin)t?", "GET /[a-z]+"}
	rules := mustRules(t, sources...)
	mfas := make([]*MFA, len(testLayouts))
	for i, layout := range testLayouts {
		mfas[i] = compileAs(t, rules, Options{}, layout)
	}

	gen := trace.NewGenerator(mfas[0].DFA(), 7)
	input := gen.Generate(nil, 8192, 0.5)
	half := len(input) / 2

	for si, src := range mfas {
		for di, dst := range mfas {
			if si == di {
				continue
			}
			// "flat" names the engine loaded from a flat image.
			t.Run(testLayouts[si].String()+" to "+testLayouts[di].String(), func(t *testing.T) {
				// One runner scans the whole input on the source layout...
				cont := src.NewRunner()
				cont.Feed(input[:half], func(int32, int64) {})
				state, mem, regs, ctrs := cont.Context()
				pos := cont.Pos()
				wantTail := feedEvents(cont, input[half:])

				// ...and a runner on the destination layout picks up its
				// mid-stream context. The tail streams must be identical.
				moved := dst.NewRunner()
				if err := moved.SetContext(state, mem, regs, ctrs, pos); err != nil {
					t.Fatal(err)
				}
				gotTail := feedEvents(moved, input[half:])
				if fmt.Sprint(gotTail) != fmt.Sprint(wantTail) {
					t.Fatalf("tail streams differ after cross-layout restore:\nsrc: %v\ndst: %v",
						wantTail, gotTail)
				}
			})
		}
	}
}

// SelfCheck accepts healthy builds of every test layout (the reload
// gate must not reject good automata) and its trace is deterministic.
func TestSelfCheckPasses(t *testing.T) {
	rules := mustRules(t, "attack.*payload", "evil", "aa.{3,}bb")
	for _, opts := range []Options{{}, countingOpts()} {
		for _, layout := range testLayouts {
			m := compileAs(t, rules, opts, layout)
			if err := m.SelfCheck(); err != nil {
				t.Fatalf("%s opts %+v: %v", layoutName(layout), opts, err)
			}
		}
	}
	if string(selfCheckTrace()) != string(selfCheckTrace()) {
		t.Fatal("self-check trace is not deterministic")
	}
}
