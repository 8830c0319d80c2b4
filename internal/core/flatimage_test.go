package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"matchfilter/internal/dfa"
)

// testLayouts are the scan configurations every equivalence suite
// covers: the two layouts an MFA serves, plus dfa.LayoutFlat, which in
// these tests stands for "decoded from a flat image written by an older
// build" — the only way a flat DFA can still reach an MFA, converted to
// classed by the constructor (see compileAs).
var testLayouts = []dfa.Layout{dfa.LayoutClassed, dfa.LayoutClassed2, dfa.LayoutFlat}

// layoutName names a testLayouts entry in failure messages.
func layoutName(l dfa.Layout) string {
	if l == dfa.LayoutFlat {
		return "flat-image"
	}
	return l.String()
}

// compileAs builds the MFA for rules in one of testLayouts. For
// dfa.LayoutFlat it compiles the default build and reloads it from an
// MFDFA2 flat image (layout code 0).
func compileAs(t testing.TB, rules []Rule, opts Options, layout dfa.Layout) *MFA {
	t.Helper()
	flat := layout == dfa.LayoutFlat
	if flat {
		layout = dfa.LayoutAuto
	}
	opts.DFA.Layout = layout
	m, err := Compile(rules, opts)
	if err != nil {
		t.Fatalf("compile %v: %v", layoutName(layout), err)
	}
	if flat {
		m = loadFlat(t, m, 2)
	}
	return m
}

// loadFlat decodes flatImage(m, version) and checks it came back
// classed.
func loadFlat(t testing.TB, m *MFA, version int) *MFA {
	t.Helper()
	lm, err := readMFA(bytes.NewReader(flatImage(t, m, version)))
	if err != nil {
		t.Fatalf("load v%d flat image: %v", version, err)
	}
	if got := lm.DFA().Layout(); got != dfa.LayoutClassed {
		t.Fatalf("v%d flat image loaded as %v, want classed", version, got)
	}
	return lm
}

// flatImage re-serializes m the way builds that still served flat
// tables wrote it: the MFA header, m's DFA expanded to 256-wide rows in
// the MFDFA1 framing (version 1) or as MFDFA2 with layout code 0
// (version 2, encoded by the dfa package's own writer from a flat DFA),
// then m's filter program.
func flatImage(t testing.TB, m *MFA, version int) []byte {
	t.Helper()
	d := m.DFA()
	var v1 bytes.Buffer
	le := func(v any) { binary.Write(&v1, binary.LittleEndian, v) }
	v1.WriteString("MFDFA1\n")
	le(uint32(d.NumStates()))
	le(d.Start())
	le(d.AcceptStart())
	le(d.TransitionTable())
	le(uint32(len(d.AcceptSets())))
	for _, ids := range d.AcceptSets() {
		le(uint32(len(ids)))
		le(ids)
	}
	section := v1.Bytes()
	if version == 2 {
		fd, err := dfa.ReadDFA(bytes.NewReader(section))
		if err != nil {
			t.Fatalf("flat DFA from v1 section: %v", err)
		}
		if fd.Layout() != dfa.LayoutFlat {
			t.Fatalf("v1 section decoded as %v, want flat", fd.Layout())
		}
		var v2 bytes.Buffer
		if _, err := fd.WriteTo(&v2); err != nil {
			t.Fatal(err)
		}
		section = v2.Bytes()
	}
	var img bytes.Buffer
	img.WriteString(mfaMagic)
	img.Write(section)
	if _, err := m.Program().WriteTo(&img); err != nil {
		t.Fatal(err)
	}
	return img.Bytes()
}

// TestFlatImageLoadsAsClassed is the golden test of the flat-image load
// decision: MFA images whose DFA section is flat — MFDFA1, and MFDFA2
// with layout code 0 — decode to a classed MFA whose (id, pos) stream
// is byte-identical to a fresh compile's, whole-payload, in 7-byte
// chunks and through the batcher.
func TestFlatImageLoadsAsClassed(t *testing.T) {
	sources := []string{"attack.*payload", "evil(roo|admin)t?", "x[0-9]+y", "ab.{3,}cd"}
	fresh := compileMFA(t, countingOpts(), sources...)
	input := []byte("xx attack x12y evilroot ab...cd with payload abcd ab1234cd evil x9y payload")
	want := fmt.Sprint(fresh.Run(input))
	for _, version := range []int{1, 2} {
		img := flatImage(t, fresh, version)
		if !bytes.Contains(img, []byte(fmt.Sprintf("MFDFA%d\n", version))) {
			t.Fatalf("v%d image lacks its DFA magic", version)
		}
		m := loadFlat(t, fresh, version)
		st, fst := m.Stats(), fresh.Stats()
		if st.DFALayout != "classed" || st.DFAClasses != fst.DFAClasses ||
			st.DFAStates != fst.DFAStates || st.DFATableBytes != fst.DFATableBytes {
			t.Fatalf("v%d: loaded stats %+v, fresh %+v", version, st, fst)
		}
		if got := fmt.Sprint(m.Run(input)); got != want {
			t.Fatalf("v%d: loaded stream %s, want %s", version, got, want)
		}
		r := m.NewRunner()
		var chunked []MatchEvent
		for off := 0; off < len(input); off += 7 {
			r.Feed(input[off:min(off+7, len(input))], func(id int32, pos int64) {
				chunked = append(chunked, MatchEvent{RuleID: id, Pos: pos})
			})
		}
		if got := fmt.Sprint(chunked); got != want {
			t.Fatalf("v%d: chunked stream %s, want %s", version, got, want)
		}
		var batched [2][]MatchEvent
		b := NewFlowBatcher(2)
		for fi := range batched {
			fi := fi
			b.Add(m.NewRunner(), fi, input, func(id int32, pos int64) {
				batched[fi] = append(batched[fi], MatchEvent{RuleID: id, Pos: pos})
			})
		}
		b.Flush()
		for fi := range batched {
			if got := fmt.Sprint(batched[fi]); got != want {
				t.Fatalf("v%d flow %d: batched stream %s, want %s", version, fi, got, want)
			}
		}
		// A reloaded image is written back classed: the conversion is
		// one-way and the re-encoded image round-trips unchanged.
		var out bytes.Buffer
		if err := WriteImage(&out, m, sources); err != nil {
			t.Fatal(err)
		}
		var ref bytes.Buffer
		if err := WriteImage(&ref, fresh, sources); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), ref.Bytes()) {
			t.Fatalf("v%d: re-encoded image differs from the fresh compile's", version)
		}
	}
}

// TestCompileRejectsFlat checks that an explicit flat layout request —
// what `-layout flat` on mfabuild/mfaserve turns into — fails loudly
// instead of building a table the MFA no longer serves, and so does an
// out-of-range layout value.
func TestCompileRejectsFlat(t *testing.T) {
	for _, layout := range []dfa.Layout{dfa.LayoutFlat, dfa.Layout(99)} {
		_, err := Compile(mustRules(t, "abc"), Options{DFA: dfa.Options{Layout: layout}})
		if !errors.Is(err, ErrFlatLayout) {
			t.Fatalf("Compile(%v) error = %v, want ErrFlatLayout", layout, err)
		}
	}
}
