package dfa

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"matchfilter/internal/nfa"
	"matchfilter/internal/patterns"
	"matchfilter/internal/regexparse"
	"matchfilter/internal/splitter"
)

// referenceFromNFA is the per-byte subset construction that block-wise
// construction replaced: every DFA state pays for all 256 bytes, each
// with a sort-based epsilon closure. It is the oracle FromNFA must
// reproduce exactly — same state numbering, tables and decision sets —
// and shares only the post-construction passes (minimize, applyLayout).
func referenceFromNFA(n *nfa.NFA, opts Options) (*DFA, error) {
	maxStates := opts.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	seen := make([]bool, n.NumStates())
	subset := map[string]uint32{}
	var queue [][]nfa.StateID
	var rows [][]uint32
	var accepts [][]int32
	intern := func(closure []nfa.StateID) (uint32, error) {
		key := refKey(nil, closure)
		if id, ok := subset[string(key)]; ok {
			return id, nil
		}
		if len(accepts) >= maxStates {
			return 0, fmt.Errorf("%w: more than %d states", ErrTooManyStates, maxStates)
		}
		id := uint32(len(accepts))
		subset[string(key)] = id
		accepts = append(accepts, matchSet(n, closure))
		queue = append(queue, closure)
		return id, nil
	}
	if _, err := intern(refClosure(n, []nfa.StateID{n.Start}, seen)); err != nil {
		return nil, err
	}
	var buckets [regexparse.AlphabetSize][]nfa.StateID
	for len(queue) > 0 {
		closure := queue[0]
		queue = queue[1:]
		for i := range buckets {
			buckets[i] = buckets[i][:0]
		}
		for _, s := range closure {
			for _, t := range n.States[s].Trans {
				for w, word := range t.Class {
					for ; word != 0; word &= word - 1 {
						b := w*64 + bits.TrailingZeros64(word)
						buckets[b] = append(buckets[b], t.To)
					}
				}
			}
		}
		row := make([]uint32, regexparse.AlphabetSize)
		local := map[string]uint32{}
		var rawKey []byte
		for b := range buckets {
			slices.Sort(buckets[b])
			targets := slices.Compact(buckets[b])
			rawKey = refKey(rawKey, targets)
			if id, ok := local[string(rawKey)]; ok {
				row[b] = id
				continue
			}
			id, err := intern(refClosure(n, targets, seen))
			if err != nil {
				return nil, err
			}
			local[string(rawKey)] = id
			row[b] = id
		}
		rows = append(rows, row)
	}

	// Renumber so accepting states form a contiguous tail.
	numStates := len(rows)
	perm := make([]uint32, numStates)
	numAccept := 0
	for _, m := range accepts {
		if m != nil {
			numAccept++
		}
	}
	acceptStart := uint32(numStates - numAccept)
	nextPlain, nextAccept := uint32(0), acceptStart
	for s, m := range accepts {
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
		start:       perm[0],
		trans:       make([]uint32, numStates*regexparse.AlphabetSize),
		numClasses:  regexparse.AlphabetSize,
		acceptStart: acceptStart,
		accepts:     make([][]int32, numAccept),
	}
	for old, row := range rows {
		for b, to := range row {
			d.trans[int(perm[old])*regexparse.AlphabetSize+b] = perm[to]
		}
		if m := accepts[old]; m != nil {
			d.accepts[perm[old]-acceptStart] = m
		}
	}
	if opts.Minimize {
		d = d.minimize()
	}
	return d.applyLayout(opts.Layout), nil
}

// refClosure is the sort-based epsilon closure the reference uses: a
// DFS over a seen []bool scratch, then a sort of the visited states.
func refClosure(n *nfa.NFA, states []nfa.StateID, seen []bool) []nfa.StateID {
	var out, stack []nfa.StateID
	for _, s := range states {
		if !seen[s] {
			seen[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, s)
		for _, t := range n.States[s].Eps {
			if !seen[t] {
				seen[t] = true
				stack = append(stack, t)
			}
		}
	}
	for _, s := range out {
		seen[s] = false
	}
	slices.Sort(out)
	return out
}

// refKey encodes a sorted state list into buf as a map key.
func refKey(buf []byte, states []nfa.StateID) []byte {
	buf = buf[:0]
	for _, s := range states {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s))
	}
	return buf
}

// constructionOptions is every table layout with and without
// minimization.
var constructionOptions = func() []Options {
	var out []Options
	for _, l := range []Layout{LayoutFlat, LayoutClassed, LayoutClassed2} {
		out = append(out, Options{Layout: l}, Options{Layout: l, Minimize: true})
	}
	return out
}()

// assertSameConstruction builds n with FromNFA and referenceFromNFA
// under opts and requires identical automata, or the same budget error.
func assertSameConstruction(t testing.TB, what string, n *nfa.NFA, opts Options) {
	t.Helper()
	got, gotErr := FromNFA(n, opts)
	want, wantErr := referenceFromNFA(n, opts)
	if gotErr != nil || wantErr != nil {
		if !errors.Is(gotErr, ErrTooManyStates) || !errors.Is(wantErr, ErrTooManyStates) || gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s %+v: FromNFA error %v, reference error %v", what, opts, gotErr, wantErr)
		}
		return
	}
	switch {
	case got.start != want.start || got.acceptStart != want.acceptStart || got.numStates != want.numStates:
		t.Fatalf("%s %+v: start/acceptStart/states %d/%d/%d, reference %d/%d/%d", what, opts,
			got.start, got.acceptStart, got.numStates, want.start, want.acceptStart, want.numStates)
	case !slices.Equal(got.flattened(), want.flattened()):
		t.Fatalf("%s %+v: flat transition tables differ", what, opts)
	case !reflect.DeepEqual(got.accepts, want.accepts):
		t.Fatalf("%s %+v: decision sets differ", what, opts)
	case !reflect.DeepEqual(got, want):
		t.Fatalf("%s %+v: layout tables differ", what, opts)
	}
}

// randomRuleSources draws the small word-based rule sets of the random
// equivalence suites: anchors, alternation, optional segments and gaps.
func randomRuleSources(rng *rand.Rand, words []string) []string {
	var sources []string
	for ri := 0; ri < 1+rng.Intn(4); ri++ {
		var sb strings.Builder
		if rng.Intn(4) == 0 {
			sb.WriteByte('^')
		}
		sb.WriteString(words[rng.Intn(len(words))])
		switch rng.Intn(4) {
		case 0:
			sb.WriteString("|" + words[rng.Intn(len(words))])
		case 1:
			sb.WriteString("?" + words[rng.Intn(len(words))])
		case 2:
			sb.WriteString(".*" + words[rng.Intn(len(words))])
		}
		sources = append(sources, sb.String())
	}
	return sources
}

// TestConstructionMatchesReference requires block-wise construction to
// reproduce the per-byte reference exactly on the rule sets of the
// random equivalence suites, the hand-written sets of this package's
// tests, and the state-budget failure path.
func TestConstructionMatchesReference(t *testing.T) {
	sets := [][]string{
		{"ab+c", "x[yz]{2}w", "foo|bar", "^hdr[0-9]+", "a.c"},
		{"vi.*emacs", "bsd.*gnu", "abc.*mm?o.*xyz"},
		{"[^\\n]*ab", "/GET [a-z]{2,4}\\x00/i", "[\\x80-\\xff]+z", "q[^q]{3}q"},
	}
	rng := rand.New(rand.NewSource(29))
	for range 40 {
		sets = append(sets, randomRuleSources(rng, []string{"ab", "abc", "bc", "ca", "aab", "cc", "GET", "pass"}))
	}
	for _, sources := range sets {
		n := buildNFA(t, sources...)
		for _, opts := range constructionOptions {
			assertSameConstruction(t, fmt.Sprint(sources), n, opts)
		}
	}

	var explosive []string
	for i := range 12 {
		explosive = append(explosive, fmt.Sprintf("s%02da.*e%02db", i, i))
	}
	assertSameConstruction(t, "budget", buildNFA(t, explosive...), Options{MaxStates: 2000})
}

// TestConstructionMatchesReferencePatterns runs the same comparison on
// the full (undecomposed) DFA of every built-in pattern set except
// B217p, whose reference construction alone takes about a minute. Only
// the default layout is compared: the other layouts and minimization
// are deterministic passes over the same constructed table, which the
// small sets above cover.
func TestConstructionMatchesReferencePatterns(t *testing.T) {
	if testing.Short() {
		t.Skip("constructs every set's full DFA twice")
	}
	names := append(patterns.Names(), "CTR8")
	for _, name := range names {
		if name == "B217p" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			srcs, err := patterns.Sources(name)
			if err != nil {
				t.Fatal(err)
			}
			assertSameConstruction(t, name, buildNFA(t, srcs...), Options{})
		})
	}
}

// FuzzSubsetConstruction compares FromNFA with the per-byte reference on
// fuzzed rule text, one rule per line, under a small state budget so
// both the success and the budget-failure paths are exercised.
func FuzzSubsetConstruction(f *testing.F) {
	f.Add([]byte("ab+c\nx[yz]{2}w\nfoo|bar\n^hdr[0-9]+"))
	f.Add([]byte("vi.*emacs\nbsd.*gnu\nabc.*mm?o.*xyz"))
	f.Add([]byte("[^\\n]*ab\n/GET [a-z]{2,4}/i\n[\\x80-\\xff]+z"))
	f.Add([]byte("aa.{4,8}bb"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			return
		}
		var rules []nfa.Rule
		for i, line := range strings.Split(string(data), "\n") {
			p, err := regexparse.ParsePCRE(line)
			if err != nil {
				continue
			}
			rules = append(rules, nfa.Rule{Pattern: p, MatchID: i + 1})
		}
		if len(rules) == 0 {
			return
		}
		n, err := nfa.Build(rules)
		if err != nil || n.NumStates() > 4096 {
			return
		}
		for _, opts := range constructionOptions {
			opts.MaxStates = 500
			assertSameConstruction(t, fmt.Sprintf("%q", data), n, opts)
		}
	})
}

// fragmentNFA is the automaton core.Compile hands to FromNFA for a
// built-in set: the union of the splitter's fragments at default
// options.
func fragmentNFA(b testing.TB, set string) *nfa.NFA {
	b.Helper()
	prules, err := patterns.Load(set)
	if err != nil {
		b.Fatal(err)
	}
	srules := make([]splitter.Rule, len(prules))
	for i, r := range prules {
		srules[i] = splitter.Rule{Pattern: r.Pattern, RuleID: r.ID}
	}
	res, err := splitter.Split(srules, splitter.Options{})
	if err != nil {
		b.Fatal(err)
	}
	rules := make([]nfa.Rule, len(res.Fragments))
	for i, f := range res.Fragments {
		rules[i] = nfa.Rule{Pattern: f.Pattern, MatchID: int(f.InternalID)}
	}
	n, err := nfa.Build(rules)
	if err != nil {
		b.Fatal(err)
	}
	return n
}

// BenchmarkFromNFA times subset construction of the MFA automaton of
// three built-in sets, reporting construction speed per DFA state.
func BenchmarkFromNFA(b *testing.B) {
	for _, set := range []string{"B217p", "S24", "C7p"} {
		b.Run(set, func(b *testing.B) {
			n := fragmentNFA(b, set)
			b.ResetTimer()
			states := 0
			for range b.N {
				d, err := FromNFA(n, Options{})
				if err != nil {
					b.Fatal(err)
				}
				states += d.NumStates()
			}
			b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/s")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(states), "ns/state")
		})
	}
}
