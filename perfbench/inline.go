package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"matchfilter/internal/engine"
	"matchfilter/internal/flow"
	"matchfilter/internal/input"
	"matchfilter/internal/pcap"
	"matchfilter/internal/telemetry"
)

// window is the number of segments the inline phase keeps in flight: an
// inline device's bounded ring. Even if every one of them sat in a shard
// queue, the engine's queue pressure would stay at or below 0.25 of
// Shards×QueueDepth on two shards, half the soft watermark, so the
// closed loop measures service, never load shedding. A window of 256
// lets one busy shard hold most of the window while the other idles,
// which made rates swing between one and two shards' worth.
const window = 512

// base is the benchmark's clock origin; now reads the monotonic clock.
var base = time.Now()

func now() int64 { return int64(time.Since(base)) }

// slot is one in-flight segment of the inline phase. It wraps the arena
// lease as the frame's pcap.Owner, so the engine's release after the scan
// marks the segment done and hands the slot back to the source.
type slot struct {
	src   *replaySource
	buf   *input.Buf
	seq   int64 // frame index over the whole phase
	start int64 // when Emitter.Frame was called
	done  int64 // when the engine released the segment
	live  bool  // emitted and not yet collected by the source
}

// Release is called once by the engine, from a shard goroutine.
func (s *slot) Release() {
	s.done = now()
	s.buf.Release()
	s.src.free <- s
}

// replaySource is the benchmark's input.Source: it replays the capture's
// frames through Emitter.Lease and Emitter.Frame, pass after pass, with
// at most window segments in flight. The first warmupNs warm the engine
// up. The measured interval follows and lasts dur; it is cut into
// binNs-long bins by release time. Passes continue until the interval is
// over, and the last pass is completed so that every flow's matches can
// be checked.
type replaySource struct {
	c    *capture
	dur  time.Duration
	free chan *slot // the window: a slot is taken per frame and returned by Release
	bins []bin      // allocated up front: the heap must not grow while sampled

	// Written by Run, read after the supervisor has returned.
	passes   int
	segs     int64
	timedAt  int64        // when the measured interval started
	timedSeq int64        // the first frame emitted in it
	tr       *inlineTrace // nil unless traced
}

// warmupNs is how long the replay runs before the measured interval: long
// enough for the flow tables and runner pools to reach their steady size.
const warmupNs = int64(250 * time.Millisecond)

// binNs is the width of a measurement bin. Rates and latency quantiles
// are taken per bin and the median over bins is reported, so a burst of
// interference from outside the process moves a few bins, not the figure.
const binNs = int64(100 * time.Millisecond)

// bin accounts the segments released in one measurement bin.
type bin struct {
	bytes int64
	lat   histogram
}

func newReplaySource(c *capture, dur time.Duration) *replaySource {
	n := int(int64(dur) / binNs)
	if n < 1 {
		n = 1
	}
	s := &replaySource{c: c, dur: time.Duration(int64(n) * binNs), free: make(chan *slot, window), bins: make([]bin, n)}
	for i := 0; i < window; i++ {
		s.free <- &slot{src: s}
	}
	return s
}

func (s *replaySource) Describe() input.Description {
	return input.Description{Name: "replay", Kind: "mem", Detail: "benchmark capture", Finite: true}
}

// collect accounts a slot whose segment the engine has released.
func (s *replaySource) collect(sl *slot) {
	if !sl.live {
		return
	}
	sl.live = false
	if s.timedAt > 0 && sl.done >= s.timedAt {
		if b := (sl.done - s.timedAt) / binNs; b < int64(len(s.bins)) {
			s.bins[b].bytes += int64(s.c.payload[sl.seq%int64(len(s.c.frames))])
			s.bins[b].lat.record(sl.done - sl.start)
		}
	}
	if s.tr != nil {
		s.tr.released(sl.seq, sl.done)
	}
}

func (s *replaySource) Run(ctx context.Context, em *input.Emitter) error {
	var seq int64
	begin := now()
	for s.passes = 0; s.timedAt == 0 || now()-s.timedAt < int64(s.dur); s.passes++ {
		for _, f := range s.c.frames {
			var sl *slot
			select {
			case sl = <-s.free:
			case <-ctx.Done():
				return ctx.Err()
			}
			s.collect(sl)
			var t0, t1 int64
			if s.tr != nil {
				t0 = now()
			}
			b := em.Lease(len(f))
			if s.tr != nil {
				t1 = now()
			}
			copy(b.Data(), f)
			t2 := now()
			if s.timedAt == 0 && t2-begin >= warmupNs {
				s.timedAt, s.timedSeq = t2, seq
			}
			sl.buf, sl.seq, sl.start, sl.live = b, seq, t2, true
			if err := em.Frame(b.Data(), sl); err != nil {
				return err
			}
			if s.tr != nil {
				s.tr.emitted(t0, t1, t2, now())
			}
			seq++
		}
	}
	s.segs = seq
	return nil
}

// drain waits until every slot is back and collects the last releases.
func (s *replaySource) drain() {
	slots := make([]*slot, 0, window)
	for len(slots) < window {
		sl := <-s.free
		s.collect(sl)
		slots = append(slots, sl)
	}
	for _, sl := range slots {
		s.free <- sl
	}
}

// binStats is the per-bin record of one or more measured intervals.
type binStats struct {
	mbps     []float64 // payload rate, MiB/s
	p50, p90 []float64 // latency quantiles, microseconds
	samples  int64     // latency samples in all bins
}

func (b *binStats) add(o binStats) {
	b.mbps = append(b.mbps, o.mbps...)
	b.p50 = append(b.p50, o.p50...)
	b.p90 = append(b.p90, o.p90...)
	b.samples += o.samples
}

// spread renders the bin rates' quartiles, for the human-readable output.
func (b *binStats) spread() string {
	r := append([]float64(nil), b.mbps...)
	sort.Float64s(r)
	q := func(f float64) float64 { return r[int(f*float64(len(r)-1))] }
	return fmt.Sprintf("bins %d, MiB/s min %.1f q1 %.1f median %.1f q3 %.1f max %.1f",
		len(r), r[0], q(0.25), q(0.5), q(0.75), r[len(r)-1])
}

func (s *replaySource) binStats() binStats {
	var b binStats
	for i := range s.bins {
		h := &s.bins[i].lat
		b.mbps = append(b.mbps, float64(s.bins[i].bytes)/(float64(binNs)/1e9)/(1<<20))
		b.p50 = append(b.p50, h.quantile(0.5)/1e3)
		b.p90 = append(b.p90, h.quantile(0.9)/1e3)
		b.samples += int64(h.n)
	}
	return b
}

// inlineResult is what one inline phase measured.
type inlineResult struct {
	bins       binStats
	timedSeq   int64 // first frame of the measured interval
	segs       int64 // segments offered, warm-up included
	passes     int
	failed     int64 // segments shed or dropped anywhere
	checkErr   error
	peakHeapMB float64
	stats      engine.Stats
	arena      input.ArenaStats
	mallocs    uint64 // heap allocations during the phase
	gcs        uint32 // GC cycles during the phase
	tr         *inlineTrace
}

// inlineOpts selects the phase's instrumentation.
type inlineOpts struct {
	dur       time.Duration
	newRunner func() flow.Runner
	traced    bool // record spans and per-layer timings
	heap      bool // sample the live heap
}

// engineConfig is the engine an operator gets by default: GOMAXPROCS
// shards, 1024-segment queues with backpressure, default watermarks,
// telemetry registry and match-event ring on, scan-on-arrival.
func engineConfig(reg *telemetry.Registry) engine.Config {
	return engine.Config{Metrics: reg, Events: telemetry.NewEventRing(1024)}
}

// runInline replays the capture through input.Supervisor → engine.Engine
// in a closed loop and checks the matches against ref.
func runInline(c *capture, ref []fingerprint, o inlineOpts) (*inlineResult, error) {
	mc := newMatchCounter(c)
	src := newReplaySource(c, o.dur)
	newRunner := o.newRunner
	var tr *inlineTrace
	if o.traced {
		tr = newInlineTrace(o.newRunner)
		src.tr = tr
		newRunner = tr.runnerFactory
	}

	runtime.GC()
	var heap *heapSampler
	if o.heap {
		heap = startHeapSampler()
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	reg := telemetry.NewRegistry()
	e := engine.New(engineConfig(reg), newRunner, mc.add)
	arena := &input.Arena{}
	var sink input.Sink = e
	if tr != nil {
		sink = &timedSink{inner: e, tr: tr}
		tr.startQueueSampler(e)
	}
	sup := input.NewSupervisor(input.Config{
		Sink:    sink,
		Arena:   arena,
		Metrics: reg,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
		},
	})
	sup.Add(src)
	runErr := sup.Run(context.Background())
	src.drain()
	if tr != nil {
		tr.stopQueueSampler()
	}
	var peak float64
	if heap != nil {
		peak = heap.stop()
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	closeErr := e.Close()
	if runErr != nil {
		return nil, fmt.Errorf("inline phase: %w", runErr)
	}
	if closeErr != nil {
		return nil, fmt.Errorf("inline phase: close: %w", closeErr)
	}

	st := e.Stats()
	r := &inlineResult{
		bins:       src.binStats(),
		timedSeq:   src.timedSeq,
		segs:       src.segs,
		passes:     src.passes,
		peakHeapMB: peak,
		stats:      st,
		arena:      arena.Stats(),
		mallocs:    ms1.Mallocs - ms0.Mallocs,
		gcs:        ms1.NumGC - ms0.NumGC,
		tr:         tr,
	}
	// Segments shed before reaching a flow table, then those a flow
	// table refused: together with the scanned ones they must account
	// for every segment offered.
	shed := st.HardDrops + st.QueueDrops + st.WedgeDrops + st.UnhealthyDrops +
		st.PoisonedDrops + st.UnknownTenantDrops + sup.Malformed()
	r.failed = shed + st.DroppedSegs + st.TenantDrops
	if st.Packets+shed != src.segs {
		r.checkErr = fmt.Errorf("engine accounted %d packets and %d shed segments for %d offered",
			st.Packets, shed, src.segs)
	} else {
		r.checkErr = mc.verify(ref, src.passes)
	}
	return r, nil
}

// heapSampler tracks the peak live heap (as marked by the last GC) while
// the inline phase runs. The live heap before the phase — the capture,
// the compiled automaton, the benchmark's own tables — is subtracted, so
// the figure is what the serving path holds.
type heapSampler struct {
	baseline uint64
	peak     uint64
	stopc    chan struct{}
	wg       sync.WaitGroup
}

const heapLiveMetric = "/gc/heap/live:bytes"

func readLiveHeap() uint64 {
	s := []metrics.Sample{{Name: heapLiveMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// startHeapSampler must be called right after a forced GC, so the
// baseline reading is current.
func startHeapSampler() *heapSampler {
	h := &heapSampler{baseline: readLiveHeap(), stopc: make(chan struct{})}
	h.peak = h.baseline
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stopc:
				return
			case <-t.C:
				if v := readLiveHeap(); v > h.peak {
					h.peak = v
				}
			}
		}
	}()
	return h
}

// stop ends sampling with one forced collection while the engine still
// holds its state, and returns the peak above baseline in MiB.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	h.wg.Wait()
	runtime.GC()
	if v := readLiveHeap(); v > h.peak {
		h.peak = v
	}
	return float64(h.peak-h.baseline) / (1 << 20)
}

// timedSink wraps the engine as the supervisor's sink to time dispatch.
// It is called from the supervisor's single pump goroutine, in frame
// order, so its records are indexed by frame.
type timedSink struct {
	inner input.Sink
	tr    *inlineTrace
}

func (t *timedSink) HandleSegmentOwned(seg pcap.Segment, owner pcap.Owner) error {
	t0 := now()
	err := t.inner.HandleSegmentOwned(seg, owner)
	t.tr.dispatched(t0, now())
	return err
}
