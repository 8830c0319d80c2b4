package core

import (
	"fmt"
	"math/rand"
	"testing"

	"matchfilter/internal/dfa"
	"matchfilter/internal/patterns"
	"matchfilter/internal/trace"
)

// TestLayoutEquivalence is the tentpole's end-to-end property test:
// for random subsets of the named pattern sets, classed- and
// classed2-layout MFAs and an MFA loaded from a flat image (written by
// an older build, converted to classed at load) must emit
// byte-identical (id, pos) match streams
// on both uniform-random payloads and trace-generated (match-seeking)
// payloads, including when the payload arrives in arbitrary Feed chunks
// — odd-length chunks included, which exercise the classed2 1-byte tail
// path at every boundary. It runs under -race in CI.
func TestLayoutEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	sets := []string{"C7p", "C8", "C10", "S24"}
	trials := 3
	if testing.Short() {
		trials = 1
	}

	for _, set := range sets {
		all, err := patterns.Load(set)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < trials; trial++ {
			// Random non-empty subset of the set's rules, original ids kept.
			var rules []Rule
			for _, r := range all {
				if rng.Intn(2) == 0 {
					rules = append(rules, Rule{Pattern: r.Pattern, ID: r.ID})
				}
			}
			if len(rules) == 0 {
				rules = append(rules, Rule{Pattern: all[0].Pattern, ID: all[0].ID})
			}

			variants := make([]*MFA, len(testLayouts))
			names := make([]string, len(testLayouts))
			for vi, layout := range testLayouts {
				variants[vi] = compileAs(t, rules, Options{}, layout)
				names[vi] = layoutName(layout)
				if layout != dfa.LayoutFlat {
					if got := variants[vi].Stats().DFALayout; got != names[vi] {
						t.Fatalf("%s/%d: %s build reports layout %q", set, trial, names[vi], got)
					}
				}
			}
			ref := variants[0]

			seed := int64(set[0])*1000 + int64(trial)
			gen := trace.NewGenerator(ref.DFA(), seed)
			inputs := [][]byte{
				trace.Random(4095, seed),      // odd length: whole-payload tail path
				gen.Generate(nil, 4096, 0.35), // drives the automaton toward accepts
				gen.Generate(nil, 4096, 0.95), // near-adversarial: maximal match density
			}
			for ii, input := range inputs {
				want := fmt.Sprint(ref.Run(input))
				for vi, m := range variants[1:] {
					if got := fmt.Sprint(m.Run(input)); got != want {
						t.Fatalf("%s/%d input %d: match streams differ\n%s: %s\n%s: %s",
							set, trial, ii, names[0], want, names[vi+1], got)
					}
				}

				// Same payload delivered in random chunks — odd lengths
				// forced on half the chunks: per-flow context must carry
				// across Feed calls identically in every layout.
				runners := make([]*Runner, len(variants))
				for vi, m := range variants {
					runners[vi] = m.NewRunner()
				}
				streams := make([][]MatchEvent, len(runners))
				for off := 0; off < len(input); {
					n := 1 + rng.Intn(700)
					if rng.Intn(2) == 0 {
						n |= 1
					}
					if off+n > len(input) {
						n = len(input) - off
					}
					for ri, r := range runners {
						ri := ri
						r.Feed(input[off:off+n], func(id int32, pos int64) {
							streams[ri] = append(streams[ri], MatchEvent{RuleID: id, Pos: pos})
						})
					}
					off += n
				}
				for ri := range runners {
					if got := fmt.Sprint(streams[ri]); got != want {
						t.Fatalf("%s/%d input %d: chunked stream %d differs from whole-payload stream",
							set, trial, ii, ri)
					}
				}
			}

			// Batched lockstep: the three inputs become three concurrent
			// flows through one FlowBatcher per layout; every flow's stream
			// must equal its classed sequential reference, for every batch
			// width including K=1 (degenerate, exercises the full-batch
			// self-flush in Add).
			for _, k := range []int{1, 2, 3, MaxBatchFlows} {
				for vi, m := range variants {
					name := names[vi]
					b := NewFlowBatcher(k)
					frs := make([]*Runner, len(inputs))
					streams := make([][]MatchEvent, len(inputs))
					offs := make([]int, len(inputs))
					cbs := make([]MatchFunc, len(inputs))
					for fi := range inputs {
						frs[fi] = m.NewRunner()
						fi := fi
						cbs[fi] = func(id int32, pos int64) {
							streams[fi] = append(streams[fi], MatchEvent{RuleID: id, Pos: pos})
						}
					}
					for done := false; !done; {
						done = true
						for fi, input := range inputs {
							if offs[fi] >= len(input) {
								continue
							}
							done = false
							n := 1 + rng.Intn(1200)
							if rng.Intn(2) == 0 {
								n |= 1
							}
							if offs[fi]+n > len(input) {
								n = len(input) - offs[fi]
							}
							if !b.Add(frs[fi], fi, input[offs[fi]:offs[fi]+n], cbs[fi]) {
								t.Fatalf("%s/%d: batcher refused a core runner", set, trial)
							}
							offs[fi] += n
						}
					}
					b.Flush()
					if b.Len() != 0 || b.Scanning() != nil {
						t.Fatalf("%s/%d %s k=%d: batcher not empty after flush", set, trial, name, k)
					}
					for fi, input := range inputs {
						if got, want := fmt.Sprint(streams[fi]), fmt.Sprint(ref.Run(input)); got != want {
							t.Fatalf("%s/%d %s k=%d flow %d: batched stream differs\nwant: %s\ngot:  %s",
								set, trial, name, k, fi, want, got)
						}
					}
				}
			}
		}
	}
}
