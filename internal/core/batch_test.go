package core

import (
	"fmt"
	"strings"
	"testing"

	"matchfilter/internal/dfa"
	"matchfilter/internal/regexparse"
)

func compileTest(t testing.TB, layout dfa.Layout, sources ...string) *MFA {
	t.Helper()
	rules := make([]Rule, len(sources))
	for i, src := range sources {
		p, err := regexparse.ParsePCRE(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		rules[i] = Rule{Pattern: p, ID: int32(i + 1)}
	}
	return compileAs(t, rules, Options{}, layout)
}

// TestBatcherSameRunnerChunkOrder checks that multiple Adds for one
// flow inside a single batch scan in arrival order: a match spanning
// the chunk boundary must be found exactly as in a sequential scan.
func TestBatcherSameRunnerChunkOrder(t *testing.T) {
	for _, layout := range testLayouts {
		m := compileTest(t, layout, "attack.*payload", "abc")
		input := []byte("xx abc attack with payload yy")
		want := fmt.Sprint(m.Run(input))

		b := NewFlowBatcher(8)
		r := m.NewRunner()
		var got []MatchEvent
		cb := func(id int32, pos int64) { got = append(got, MatchEvent{RuleID: id, Pos: pos}) }
		// Split mid-"attack" and mid-"payload": both chunks must land in
		// the same lane, in order. Add a second flow so Flush actually
		// locksteps rather than falling back to the single-lane path.
		r2 := m.NewRunner()
		b.Add(r, "f1", input[:9], cb)
		b.Add(r2, "f2", []byte("no matches here"), func(int32, int64) {})
		b.Add(r, "f1", input[9:23], cb)
		b.Add(r, "f1", input[23:], cb)
		if b.Len() != 2 {
			t.Fatalf("layout %s: Len = %d, want 2 lanes", layoutName(layout), b.Len())
		}
		if !b.Contains(r) || b.Contains(m.NewRunner()) {
			t.Fatalf("layout %s: Contains misreports", layoutName(layout))
		}
		b.Flush()
		if fmt.Sprint(got) != want {
			t.Fatalf("layout %s: batched %v, want %s", layoutName(layout), got, want)
		}
	}
}

// TestBatcherMixedLayouts puts runners of every test layout (three
// distinct MFAs: classed, classed2 and one loaded from a flat image)
// into one batch — the multi-tenant shard case — and
// checks every flow's stream against its own sequential reference.
func TestBatcherMixedLayouts(t *testing.T) {
	sources := []string{"attack.*payload", "abc", "x[0-9]+y"}
	var mfas []*MFA
	for _, layout := range testLayouts {
		mfas = append(mfas, compileTest(t, layout, sources...))
	}
	inputs := [][]byte{
		[]byte("xx abc attack with payload x12y"),
		[]byte("abcabcabc x999y zz"),
		[]byte(strings.Repeat("attack payload ", 5)),
		[]byte("no hits at all......"),
		[]byte("x1y"),
		[]byte("attack abc payload"),
	}
	b := NewFlowBatcher(MaxBatchFlows)
	streams := make([][]MatchEvent, len(inputs))
	for fi, input := range inputs {
		m := mfas[fi%len(mfas)]
		fi := fi
		b.Add(m.NewRunner(), fi, input, func(id int32, pos int64) {
			streams[fi] = append(streams[fi], MatchEvent{RuleID: id, Pos: pos})
		})
	}
	b.Flush()
	for fi, input := range inputs {
		want := fmt.Sprint(mfas[fi%len(mfas)].Run(input))
		if got := fmt.Sprint(streams[fi]); got != want {
			t.Fatalf("flow %d: got %s, want %s", fi, got, want)
		}
	}
}

// TestBatcherMixedMFAsSameLayout puts runners of two *different* MFAs
// sharing one layout into a batch, so the lockstep loop's per-strip
// table-view loads alternate between automata. Every flow's stream must
// still match its own sequential reference.
func TestBatcherMixedMFAsSameLayout(t *testing.T) {
	for _, layout := range testLayouts {
		mfas := []*MFA{
			compileTest(t, layout, "attack.*payload", "abc"),
			compileTest(t, layout, "x[0-9]+y", "payload"),
		}
		inputs := [][]byte{
			[]byte("xx abc attack with payload x12y"),
			[]byte("abc x999y payload zz"),
			[]byte(strings.Repeat("attack payload x1y ", 4)),
			[]byte("no hits at all. odd len"),
		}
		b := NewFlowBatcher(MaxBatchFlows)
		streams := make([][]MatchEvent, len(inputs))
		for fi, input := range inputs {
			fi := fi
			b.Add(mfas[fi%2].NewRunner(), fi, input, func(id int32, pos int64) {
				streams[fi] = append(streams[fi], MatchEvent{RuleID: id, Pos: pos})
			})
		}
		b.Flush()
		for fi, input := range inputs {
			want := fmt.Sprint(mfas[fi%2].Run(input))
			if got := fmt.Sprint(streams[fi]); got != want {
				t.Fatalf("layout %s flow %d: got %s, want %s", layoutName(layout), fi, got, want)
			}
		}
	}
}

// TestBatcherRejectsForeignRunner checks the inline-fallback contract:
// a runner that is not a *core.Runner (e.g. a fault-injection
// decorator) is refused so the caller scans it inline.
func TestBatcherRejectsForeignRunner(t *testing.T) {
	b := NewFlowBatcher(4)
	if b.Add(struct{ any }{}, "tag", []byte("data"), func(int32, int64) {}) {
		t.Fatal("batcher accepted a non-core runner")
	}
	if b.Contains(struct{ any }{}) {
		t.Fatal("Contains true for a non-core runner")
	}
	if b.Len() != 0 {
		t.Fatal("refused Add left residue")
	}
}

// TestBatcherFullBatchSelfFlush checks that Add beyond the batch width
// flushes the pending lanes first — no silent eviction, no lost work.
func TestBatcherFullBatchSelfFlush(t *testing.T) {
	m := compileTest(t, dfa.LayoutClassed2, "abc")
	b := NewFlowBatcher(2)
	var total int
	cb := func(int32, int64) { total++ }
	for i := 0; i < 5; i++ {
		b.Add(m.NewRunner(), i, []byte("xabcx"), cb)
	}
	if b.Len() != 1 { // 2+2 flushed, fifth pending
		t.Fatalf("Len = %d after 5 adds at width 2, want 1", b.Len())
	}
	b.Flush()
	if total != 5 {
		t.Fatalf("got %d matches across self-flushed batches, want 5", total)
	}
}

// TestBatcherPanicLeavesBatchEmpty checks the fault-isolation contract
// the shard depends on: a panic in one flow's match callback kills only
// that lane — sibling lanes still deliver all their matches and write
// back state — then the panic re-raises out of Flush with Scanning
// identifying the offending flow's tag, and the batcher is left empty.
func TestBatcherPanicLeavesBatchEmpty(t *testing.T) {
	m := compileTest(t, dfa.LayoutClassed2, "abc")
	var ok1, ok2 int
	b := NewFlowBatcher(8)
	b.Add(m.NewRunner(), "ok-1", []byte("abc abc"), func(int32, int64) { ok1++ })
	b.Add(m.NewRunner(), "boom", []byte("xx abc"), func(int32, int64) { panic("hostile callback") })
	b.Add(m.NewRunner(), "ok-2", []byte("abc"), func(int32, int64) { ok2++ })

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
			if got := b.Scanning(); got != "boom" {
				t.Fatalf("Scanning() = %v mid-unwind, want \"boom\"", got)
			}
		}()
		b.Flush()
	}()
	if b.Len() != 0 {
		t.Fatalf("batcher holds %d lanes after panic, want 0", b.Len())
	}
	if ok1 != 2 || ok2 != 1 {
		t.Fatalf("sibling lanes lost matches to the panic: ok1=%d ok2=%d, want 2,1", ok1, ok2)
	}
	// The batcher must be reusable afterwards.
	var n int
	b.Add(m.NewRunner(), "after", []byte("abc"), func(int32, int64) { n++ })
	b.Flush()
	if n != 1 {
		t.Fatalf("post-panic batch scanned %d matches, want 1", n)
	}
}

// TestBatcherWriteBackState checks that after a flush every runner
// holds the same (state, pos) context it would after sequential Feeds —
// the property flow teardown and hot reload rely on when they capture
// contexts from recently batched runners.
func TestBatcherWriteBackState(t *testing.T) {
	for _, layout := range testLayouts {
		m := compileTest(t, layout, "attack.*payload", "abc")
		inputs := [][]byte{
			[]byte("xx abc attack wi"),   // even length
			[]byte("odd abc attack wi."), // odd length
			[]byte("attack with paylo"),
		}
		b := NewFlowBatcher(8)
		batched := make([]*Runner, len(inputs))
		for fi, input := range inputs {
			batched[fi] = m.NewRunner()
			b.Add(batched[fi], fi, input, func(int32, int64) {})
		}
		b.Flush()
		for fi, input := range inputs {
			seq := m.NewRunner()
			seq.Feed(input, func(int32, int64) {})
			bs, _, _, _ := batched[fi].Context()
			ss, _, _, _ := seq.Context()
			if bs != ss || batched[fi].Pos() != seq.Pos() {
				t.Fatalf("layout %s flow %d: batched context (%d,%d) != sequential (%d,%d)",
					layoutName(layout), fi, bs, batched[fi].Pos(), ss, seq.Pos())
			}
			if bs >= uint32(m.Stats().DFAStates) {
				t.Fatalf("layout %s flow %d: written-back state %d is not a plain state number", layoutName(layout), fi, bs)
			}
		}
	}
}
