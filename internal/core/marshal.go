package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"matchfilter/internal/dfa"
	"matchfilter/internal/filter"
)

// Engine images: the rule sources, then the compiled MFA — a header, the
// character DFA and the filter program — so engines can be compiled once
// (cmd/mfabuild -o) and loaded by scanners without reparsing or
// re-running subset construction.
const mfaMagic = "MFAUT1\n"

// ErrBadFormat is returned (wrapped) when decoding unrecognized or
// corrupt data.
var ErrBadFormat = errors.New("core: bad serialized format")

// WriteImage writes a complete engine image: the rule sources (rule id
// i+1 is sources[i]) followed by the automaton. It is the one writer of
// the format ReadImage reads. Construction statistics are not preserved
// — a loaded engine reports zero build time and split counters, but
// identical matching behaviour and sizes.
func WriteImage(w io.Writer, m *MFA, sources []string) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if err := writeStrings(bw, sources); err != nil {
		return err
	}
	if _, err := io.WriteString(bw, mfaMagic); err != nil {
		return err
	}
	if _, err := m.d.WriteTo(bw); err != nil {
		return err
	}
	if _, err := m.prog.WriteTo(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadImage reads an engine image written by WriteImage. Every section
// is validated structurally, and every rule id the filter program can
// confirm must name one of the image's sources, so a corrupt or hostile
// image fails with ErrBadFormat rather than loading into an engine that
// reports rules it cannot name.
func ReadImage(r io.Reader) (*MFA, []string, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	sources, err := readStrings(br)
	if err != nil {
		return nil, nil, err
	}
	m, err := readMFA(br)
	if err != nil {
		return nil, nil, err
	}
	for id := int32(1); int(id) < m.prog.NumIDs(); id++ {
		if rep := m.prog.Action(id).Report; rep < 0 || int(rep) > len(sources) {
			return nil, nil, fmt.Errorf("%w: filter id %d reports rule %d, image has %d",
				ErrBadFormat, id, rep, len(sources))
		}
	}
	return m, sources, nil
}

func readMFA(r io.Reader) (*MFA, error) {
	magic := make([]byte, len(mfaMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if string(magic) != mfaMagic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadFormat, magic)
	}
	d, err := dfa.ReadDFA(r)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	prog, err := filter.ReadProgram(r)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// Cross-validate: every decision-set id must have an action slot.
	for s := d.AcceptStart(); s < uint32(d.NumStates()); s++ {
		for _, id := range d.Matches(s) {
			if id <= 0 || int(id) >= prog.NumIDs() {
				return nil, fmt.Errorf("%w: decision id %d outside program (%d ids)",
					ErrBadFormat, id, prog.NumIDs())
			}
		}
	}
	return newMFA(d, prog, BuildStats{
		MemBits: prog.MemBits(),
		PosRegs: prog.NumRegs(),
	}), nil
}

// writeString writes a length-prefixed string; readString reverses it.
func writeString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader, maxLen int) (string, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if int(n) > maxLen {
		return "", fmt.Errorf("%w: string length %d", ErrBadFormat, n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// writeStrings persists a list of pattern sources.
func writeStrings(w io.Writer, ss []string) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(ss))); err != nil {
		return err
	}
	for _, s := range ss {
		if err := writeString(w, s); err != nil {
			return err
		}
	}
	return nil
}

// readStrings reverses writeStrings.
func readStrings(r io.Reader) ([]string, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if n > 1<<20 {
		return nil, fmt.Errorf("%w: %d strings", ErrBadFormat, n)
	}
	out := make([]string, n)
	for i := range out {
		s, err := readString(r, 1<<20)
		if err != nil {
			return nil, fmt.Errorf("%w: string %d: %v", ErrBadFormat, i, err)
		}
		out[i] = s
	}
	return out, nil
}
