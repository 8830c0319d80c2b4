package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"matchfilter/internal/engine"
	"matchfilter/internal/flow"
)

// spanCap bounds the spans written per traced run: spanCap segments
// after the warm-up (three spans each) and the first spanCap
// core.feed calls.
const spanCap = 20000

// inlineTrace records the traced inline phase from the benchmark's side
// of each layer boundary: Emitter.Lease + Emitter.Frame (source
// goroutine), HandleSegmentOwned (supervisor pump goroutine), the
// engine's release (shard goroutines, collected by the source) and
// Runner.Feed (shard goroutines). Each record slice has one writer, and
// the source's and the pump's live in separate objects so their appends
// do not share a cache line.
type inlineTrace struct {
	inner func() flow.Runner
	src   *sourceRecs
	pump  *pumpRecs

	mu      sync.Mutex
	runners []*timedRunner
	feedCap atomic.Int64 // core.feed spans still to record

	qsum, qn int64 // queue-depth samples; sampler goroutine
	qstop    chan struct{}
	qwg      sync.WaitGroup
}

type sourceRecs struct {
	emits []emitRec // by frame index
	rels  []relRec  // in collection order
}

type pumpRecs struct {
	disps []dispRec // by frame index
}

type emitRec struct{ lease, leased, frame, framed int64 }

type relRec struct{ seq, at int64 }

type dispRec struct{ start, end int64 }

func newInlineTrace(inner func() flow.Runner) *inlineTrace {
	t := &inlineTrace{inner: inner, src: &sourceRecs{}, pump: &pumpRecs{}}
	t.feedCap.Store(spanCap)
	return t
}

func (t *inlineTrace) emitted(lease, leased, frame, framed int64) {
	t.src.emits = append(t.src.emits, emitRec{lease, leased, frame, framed})
}

func (t *inlineTrace) released(seq, at int64) { t.src.rels = append(t.src.rels, relRec{seq, at}) }

func (t *inlineTrace) dispatched(start, end int64) {
	t.pump.disps = append(t.pump.disps, dispRec{start, end})
}

// runnerFactory wraps each runner the engine creates so Feed is timed.
// Runners stay on the shard that created them, so a runner's counters
// have one writer; they are read after the engine has closed.
func (t *inlineTrace) runnerFactory() flow.Runner {
	r := &timedRunner{r: t.inner(), cap: &t.feedCap}
	t.mu.Lock()
	t.runners = append(t.runners, r)
	t.mu.Unlock()
	return r
}

type timedRunner struct {
	r                flow.Runner
	ns, bytes, calls int64
	cap              *atomic.Int64
	spans            []feedSpan
}

type feedSpan struct{ start, end, bytes int64 }

func (r *timedRunner) Feed(data []byte, onMatch func(int32, int64)) {
	t0 := now()
	r.r.Feed(data, onMatch)
	t1 := now()
	r.ns += t1 - t0
	r.bytes += int64(len(data))
	r.calls++
	if r.cap.Load() > 0 && r.cap.Add(-1) >= 0 {
		r.spans = append(r.spans, feedSpan{t0, t1, int64(len(data))})
	}
}

func (r *timedRunner) Reset() { r.r.Reset() }

// startQueueSampler samples the engine's total shard-queue depth every
// millisecond until stopQueueSampler.
func (t *inlineTrace) startQueueSampler(e *engine.Engine) {
	t.qstop = make(chan struct{})
	t.qwg.Add(1)
	go func() {
		defer t.qwg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-t.qstop:
				return
			case <-tick.C:
				t.qsum += e.Stats().QueueDepth
				t.qn++
			}
		}
	}()
}

func (t *inlineTrace) stopQueueSampler() {
	close(t.qstop)
	t.qwg.Wait()
}

// traceStats is what the traced phase yields per layer. Only segments
// after the warm-up (frame index >= from) are counted.
type traceStats struct {
	emitNs, dispatchNs   float64 // per segment
	residenceUsP50       float64
	queueDepthMean       float64
	feedNsPerByte        float64
	bytesPerFeed         float64
	feedCalls, feedBytes int64
}

func (t *inlineTrace) stats(from int64) traceStats {
	var st traceStats
	emits, rels, disps := t.src.emits, t.src.rels, t.pump.disps
	var emit, disp, n int64
	for seq := from; seq < int64(len(emits)); seq++ {
		e := emits[seq]
		emit += (e.leased - e.lease) + (e.framed - e.frame)
		d := disps[seq]
		disp += d.end - d.start
		n++
	}
	if n > 0 {
		st.emitNs = float64(emit) / float64(n)
		st.dispatchNs = float64(disp) / float64(n)
	}
	var res histogram
	for _, r := range rels {
		if r.seq >= from {
			res.record(r.at - disps[r.seq].end)
		}
	}
	st.residenceUsP50 = res.quantile(0.5) / 1e3
	if t.qn > 0 {
		st.queueDepthMean = float64(t.qsum) / float64(t.qn)
	}
	var ns int64
	for _, r := range t.runners {
		ns += r.ns
		st.feedBytes += r.bytes
		st.feedCalls += r.calls
	}
	if st.feedBytes > 0 {
		st.feedNsPerByte = float64(ns) / float64(st.feedBytes)
	}
	if st.feedCalls > 0 {
		st.bytesPerFeed = float64(st.feedBytes) / float64(st.feedCalls)
	}
	return st
}

// writeSpans writes the recorded spans as JSON lines: segment (Lease to
// release), its children input.emit and engine.dispatch, and core.feed
// calls on shard goroutines (unkeyed: a runner does not know which
// segment it is scanning). Times are nanoseconds since process start.
func (t *inlineTrace) writeSpans(path string, from int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	emits, disps := t.src.emits, t.pump.disps
	done := make([]int64, len(emits))
	for _, r := range t.src.rels {
		done[r.seq] = r.at
	}
	for seq := from; seq < int64(len(emits)) && seq < from+spanCap; seq++ {
		e, d := emits[seq], disps[seq]
		fmt.Fprintf(w, `{"span":"segment","id":%d,"start":%d,"end":%d}`+"\n", seq, e.lease, done[seq])
		fmt.Fprintf(w, `{"span":"input.emit","parent":%d,"start":%d,"end":%d}`+"\n", seq, e.lease, e.framed)
		fmt.Fprintf(w, `{"span":"engine.dispatch","parent":%d,"start":%d,"end":%d}`+"\n", seq, d.start, d.end)
	}
	for i, r := range t.runners {
		for _, s := range r.spans {
			fmt.Fprintf(w, `{"span":"core.feed","runner":%d,"start":%d,"end":%d,"bytes":%d}`+"\n", i, s.start, s.end, s.bytes)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
