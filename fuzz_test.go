package matchfilter

// Native fuzz targets. Under plain `go test` the seed corpus runs as
// regression tests; `go test -fuzz=FuzzX` explores further.

import (
	"bytes"
	"encoding/binary"
	"testing"

	"matchfilter/internal/core"
	"matchfilter/internal/regexparse"
)

// FuzzParse asserts the parser never panics and that accepted patterns
// re-render to sources that reparse.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"abc", ".*a.*b", `a[^\n]*b`, "^x(y|z)+w{2,5}", `/\d+[a-f]/i`,
		"(", "a{999999}", `\x4`, "[z-a]", "a(?:b)c", "", "|", "[^\xff]",
		".{5,}end", "((((a))))", "a**", `\Q`, "/abc/xyz",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := regexparse.ParsePCRE(src)
		if err != nil {
			return
		}
		rendered := p.String()
		if _, err := regexparse.Parse(rendered); err != nil {
			t.Fatalf("accepted %q but rendering %q does not reparse: %v", src, rendered, err)
		}
	})
}

// FuzzCompileScan asserts that any accepted pattern can be compiled and
// scanned without panicking, and that a match's End offset is in range.
func FuzzCompileScan(f *testing.F) {
	f.Add("ab.*cd", "xx ab yy cd zz")
	f.Add(`a[^\n]*b`, "a...b\na\nb")
	f.Add("^hdr", "hdr payload")
	f.Add(".{3,}x", "....x")
	f.Add("ab.{3,9}cd", "ab....cd")
	f.Add(`ab[^x]{2,20}cd`, "ab....cd ab.x.cd")
	f.Fuzz(func(t *testing.T, pattern, input string) {
		e, err := Compile([]string{pattern},
			WithCountingGaps(), WithBoundedRepeatCounters(), WithMaxStates(2000))
		if err != nil {
			return
		}
		for _, m := range e.Scan([]byte(input)) {
			if m.End < 0 || m.End >= int64(len(input)) {
				t.Fatalf("pattern %q input %q: match end %d out of range", pattern, input, m.End)
			}
			if m.Pattern != 0 {
				t.Fatalf("unexpected pattern index %d", m.Pattern)
			}
		}
	})
}

// FuzzLoad asserts the engine loader never panics and never accepts
// mutations that break scanning. One seed is a flat image as older
// builds wrote it, so mutations also reach the flat→classed conversion
// at decode time.
func FuzzLoad(f *testing.F) {
	e := MustCompile([]string{"ab.*cd", `x[^\n]*y`})
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("garbage"))
	f.Add(flatEngineImage(f, e))
	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := Load(bytes.NewReader(data))
		if err != nil {
			if loaded != nil {
				t.Fatal("error with non-nil engine")
			}
			return
		}
		// Whatever loaded must scan without panicking and name every
		// pattern it reports.
		for _, m := range loaded.Scan([]byte("ab cd x y\nab")) {
			loaded.Pattern(m.Pattern)
		}
	})
}

// flatEngineImage re-serializes e the way builds that still served flat
// tables wrote it: the pattern list, the MFA header, e's DFA expanded to
// 256-wide rows in the MFDFA1 framing, then the filter program.
func flatEngineImage(tb testing.TB, e *Engine) []byte {
	// The pattern list is the prefix of a current image, up to the MFA
	// header.
	var cur bytes.Buffer
	if err := core.WriteImage(&cur, e.mfa, e.patterns); err != nil {
		tb.Fatal(err)
	}
	var img bytes.Buffer
	img.Write(cur.Bytes()[:bytes.Index(cur.Bytes(), []byte("MFAUT1\n"))])
	le := func(v any) { binary.Write(&img, binary.LittleEndian, v) }
	d := e.mfa.DFA()
	img.WriteString("MFAUT1\nMFDFA1\n")
	le(uint32(d.NumStates()))
	le(d.Start())
	le(d.AcceptStart())
	le(d.TransitionTable())
	le(uint32(len(d.AcceptSets())))
	for _, ids := range d.AcceptSets() {
		le(uint32(len(ids)))
		le(ids)
	}
	if _, err := e.mfa.Program().WriteTo(&img); err != nil {
		tb.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(img.Bytes()))
	if err != nil {
		tb.Fatalf("flat image does not load: %v", err)
	}
	if got := loaded.mfa.Stats().DFALayout; got != "classed" {
		tb.Fatalf("flat image loaded as %q, want classed", got)
	}
	return img.Bytes()
}

// TestFuzzSeedsSanity keeps the deliberate-corruption cases meaningful:
// flipping any single byte of a valid engine file must either fail to
// load or still scan consistently (no panics). A bounded sweep here; the
// fuzzer explores the rest.
func TestFuzzSeedsSanity(t *testing.T) {
	e := MustCompile([]string{"needle"})
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	stride := len(valid)/64 + 1
	for i := 0; i < len(valid); i += stride {
		mut := append([]byte{}, valid...)
		mut[i] ^= 0x5a
		loaded, err := Load(bytes.NewReader(mut))
		if err != nil {
			continue // rejected, as corrupt data usually is
		}
		loaded.Scan([]byte("a needle in a haystack"))
	}
}
