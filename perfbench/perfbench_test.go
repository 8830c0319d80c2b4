package main

import (
	"bytes"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"matchfilter/internal/core"
	"matchfilter/internal/flow"
	"matchfilter/internal/pcap"
)

// TestCaptureDeterministic checks that each workload's generator turns
// one seed into one byte-identical capture, and another seed into
// another capture.
func TestCaptureDeterministic(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, err := generate(w, 7)
			if err != nil {
				t.Fatal(err)
			}
			b, err := generate(w, 7)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.pcap, b.pcap) {
				t.Fatal("same seed gave different captures")
			}
			c, err := generate(w, 8)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(a.pcap, c.pcap) {
				t.Fatal("different seeds gave the same capture")
			}
		})
	}
}

// TestChurnStaggered checks the churn capture's shape: flows open and
// close throughout, with hundreds of them open at once, and each flow's
// FIN comes after all of its data.
func TestChurnStaggered(t *testing.T) {
	w, err := findWorkload("churn")
	if err != nil {
		t.Fatal(err)
	}
	c, err := generate(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	open := map[pcap.FlowKey]bool{}
	maxOpen, closedBeforeLastOpen := 0, 0
	lastSyn := 0
	for i, seg := range c.segments {
		if seg.Flags&pcap.FlagSYN != 0 {
			lastSyn = i
		}
	}
	for i, seg := range c.segments {
		switch {
		case seg.Flags&pcap.FlagSYN != 0:
			open[seg.Key] = true
		case seg.Flags&pcap.FlagFIN != 0:
			if !open[seg.Key] {
				t.Fatalf("segment %d: FIN on a flow that is not open", i)
			}
			delete(open, seg.Key)
			if i < lastSyn {
				closedBeforeLastOpen++
			}
		case !open[seg.Key]:
			t.Fatalf("segment %d: data on a flow that is not open", i)
		}
		if len(open) > maxOpen {
			maxOpen = len(open)
		}
	}
	if maxOpen < w.live/2 || maxOpen > w.live {
		t.Errorf("at most %d flows open at once, want between %d and %d", maxOpen, w.live/2, w.live)
	}
	if closedBeforeLastOpen < w.flows/2 {
		t.Errorf("only %d of %d flows closed before the last one opened", closedBeforeLastOpen, w.flows)
	}
}

// smallChurn is a churn workload small enough for unit tests.
func smallChurn(t *testing.T) (workload, *core.MFA, *capture, []fingerprint) {
	t.Helper()
	w, err := findWorkload("churn")
	if err != nil {
		t.Fatal(err)
	}
	w.flows, w.live = 400, 40
	srcs, err := w.ruleSources()
	if err != nil {
		t.Fatal(err)
	}
	m, err := setup(srcs, w.options())
	if err != nil {
		t.Fatal(err)
	}
	c, err := generate(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	ref := c.reference(m)
	if refTotal(ref) == 0 {
		t.Fatal("test capture has no matches to lose")
	}
	return w, m, c, ref
}

// dropOneRunner loses the first match any of its siblings reports.
type dropOneRunner struct {
	r       flow.Runner
	dropped *atomic.Bool
}

func (d dropOneRunner) Feed(data []byte, onMatch func(int32, int64)) {
	d.r.Feed(data, func(id int32, pos int64) {
		if d.dropped.CompareAndSwap(false, true) {
			return
		}
		onMatch(id, pos)
	})
}

func (d dropOneRunner) Reset() { d.r.Reset() }

// TestDroppedMatchFails checks that both timed phases pass the match
// check with the real runners and fail it when one match goes missing.
func TestDroppedMatchFails(t *testing.T) {
	_, m, c, ref := smallChurn(t)
	plain := func() flow.Runner { return m.NewRunner() }
	dropping := func() func() flow.Runner {
		dropped := &atomic.Bool{}
		return func() flow.Runner { return dropOneRunner{m.NewRunner(), dropped} }
	}
	const d = 50 * time.Millisecond

	for _, traced := range []bool{false, true} {
		in, err := runInline(c, ref, inlineOpts{dur: d, newRunner: plain, traced: traced})
		if err != nil {
			t.Fatal(err)
		}
		if in.checkErr != nil || in.failed != 0 {
			t.Fatalf("inline phase (traced %v): check %v, %d failed", traced, in.checkErr, in.failed)
		}
		in, err = runInline(c, ref, inlineOpts{dur: d, newRunner: dropping(), traced: traced})
		if err != nil {
			t.Fatal(err)
		}
		if in.checkErr == nil {
			t.Fatalf("inline phase (traced %v) passed the check with a match dropped", traced)
		}
	}

	sq, err := runSequential(c, ref, plain, d, true)
	if err != nil {
		t.Fatal(err)
	}
	if sq.checkErr != nil || sq.failed != 0 {
		t.Fatalf("sequential phase: check %v, %d failed", sq.checkErr, sq.failed)
	}
	sq, err = runSequential(c, ref, dropping(), d, true)
	if err != nil {
		t.Fatal(err)
	}
	if sq.checkErr == nil {
		t.Fatal("sequential phase passed the check with a match dropped")
	}
}

// TestLayers runs the per-layer measurements on a small capture: the DFA
// walk plus the filter must confirm exactly the reference's matches.
func TestLayers(t *testing.T) {
	_, m, c, ref := smallChurn(t)
	if _, err := timeDecode(c, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if ns := timeReassembly(c, time.Millisecond); ns <= 0 {
		t.Fatalf("reassembly: %v ns/seg", ns)
	}
	dl, err := recordDelivery(c)
	if err != nil {
		t.Fatal(err)
	}
	if dl.bytes != c.bytes {
		t.Fatalf("recorded %d delivered bytes, capture holds %d", dl.bytes, c.bytes)
	}
	w := timeWalk(m, dl, time.Millisecond)
	if _, confirmed := timeFilter(m, w, time.Millisecond); uint64(confirmed) != refTotal(ref) {
		t.Fatalf("walk + filter confirmed %d matches, reference has %d", confirmed, refTotal(ref))
	}
}

// TestReplayProbe checks that the full-speed replay runs to completion
// and reports loss against the reference. Loss itself is not asserted:
// it depends on scheduling.
func TestReplayProbe(t *testing.T) {
	_, m, c, ref := smallChurn(t)
	r, err := replayProbe(c, ref, func() flow.Runner { return m.NewRunner() }, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.lossPct < 0 || r.lossPct > 100 {
		t.Fatalf("match loss %.2f%% outside [0, 100]", r.lossPct)
	}
}

func TestVerifyDetectsMovedMatch(t *testing.T) {
	c := &capture{streams: make([][]byte, 1), flowIdx: map[pcap.FlowKey]int32{{SrcPort: 1}: 0}}
	var ref [1]fingerprint
	ref[0].add(3, 100)
	mc := newMatchCounter(c)
	mc.add(flow.Match{Flow: pcap.FlowKey{SrcPort: 1}, ID: 3, Pos: 101})
	if err := mc.verify(ref[:], 1); err == nil {
		t.Fatal("a match at another offset passed the check")
	}
	mc = newMatchCounter(c)
	mc.add(flow.Match{Flow: pcap.FlowKey{SrcPort: 1}, ID: 3, Pos: 100})
	if err := mc.verify(ref[:], 1); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h histogram
	for v := int64(1); v <= 100000; v++ {
		h.record(v * 10)
	}
	for _, q := range []float64{0.5, 0.9} {
		want := q * 1e6
		if got := h.quantile(q); math.Abs(got-want)/want > 0.02 {
			t.Errorf("quantile(%v) = %.0f, want %.0f within 2%%", q, got, want)
		}
	}
}

func TestGitCommitWithoutRepository(t *testing.T) {
	if got := gitCommit(t.TempDir()); got != "unknown" {
		t.Fatalf("gitCommit of an empty directory = %q", got)
	}
}
