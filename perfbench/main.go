// Command perfbench is the repository's benchmark of the serving path.
// It compiles a workload's rule set, generates the workload's capture
// from a seed, and measures it through the inline serving stack
// (input.Supervisor → engine.Engine → flow → core) and the sequential
// mfascan path, checking every match against a whole-stream reference.
// With -trace 1 it instead reports per-layer costs. See README.md.
//
// Build and run it from the repository root with
//
//	python3 perfbench/run.py -workload dense -seed 1 -seconds 12 -trace 0
//
// The fingerprint of the source tree and the results and spans written
// under -out are relative to the working directory, so a direct run must
// start there too. The last line of standard output is one JSON object.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"matchfilter/internal/core"
	"matchfilter/internal/flow"
	"matchfilter/internal/regexparse"
)

func main() {
	wname := flag.String("workload", "", "workload: dense, sparse or churn")
	seed := flag.Int64("seed", 1, "seed of the generated capture")
	seconds := flag.Int("seconds", 12, "seconds the timed phases run in total")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build/out", "directory for result files and spans")
	flag.Parse()

	if err := run(*wname, *seed, *seconds, *traced == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported figure; samples is printed, not emitted in JSON.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int64
}

// report is one run's outcome.
type report struct {
	metrics   []metric
	attempted int64 // segments offered in the timed phases
	failed    int64 // segments shed or dropped anywhere
	errs      []error
}

func (r *report) add(name string, value float64, unit string, samples int64) {
	r.metrics = append(r.metrics, metric{name, value, unit, samples})
}

// fail records a correctness failure; the run then reports correct=false.
func (r *report) fail(phase string, err error) {
	if err != nil {
		r.errs = append(r.errs, fmt.Errorf("%s: %w", phase, err))
	}
}

func run(wname string, seed int64, seconds int, traced bool, out string) error {
	w, err := findWorkload(wname)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	h := hostInfo(w, seed, seconds, traced)
	hj, err := json.Marshal(h)
	if err != nil {
		return err
	}
	fmt.Printf("host %s\n", hj)

	dur := time.Duration(seconds) * time.Second
	var rep *report
	if traced {
		rep, err = benchTraced(w, seed, dur, filepath.Join(out, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed)))
	} else {
		rep, err = benchUntraced(w, seed, dur)
	}
	if err != nil {
		return err
	}

	for _, m := range rep.metrics {
		if m.samples > 0 {
			fmt.Printf("%-28s %14.4f %-9s n=%d\n", m.name, m.value, m.unit, m.samples)
		} else {
			fmt.Printf("%-28s %14.4f %s\n", m.name, m.value, m.unit)
		}
	}
	for _, e := range rep.errs {
		fmt.Printf("FAILED %v\n", e)
	}
	type jmetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool               `json:"correct"`
		Attempted int64              `json:"attempted"`
		Failed    int64              `json:"failed"`
		Metrics   map[string]jmetric `json:"metrics"`
	}{len(rep.errs) == 0 && rep.failed == 0, rep.attempted, rep.failed, map[string]jmetric{}}
	for _, m := range rep.metrics {
		res.Metrics[m.name] = jmetric{m.value, m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if err := saveResult(out, w, seed, traced, h, line); err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// saveResult stores the result line with its host fingerprint.
func saveResult(out string, w workload, seed int64, traced bool, h host, line []byte) error {
	dir := filepath.Join(out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec, err := json.MarshalIndent(struct {
		Host   host            `json:"host"`
		Result json.RawMessage `json:"result"`
	}{h, line}, "", "  ")
	if err != nil {
		return err
	}
	t := 0
	if traced {
		t = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, seed, t)), append(rec, '\n'), 0o644)
}

func (w workload) options() core.Options {
	var o core.Options
	o.Splitter.EnableCounters = w.counters
	return o
}

// compile parses the rule text and compiles it.
func compile(srcs []string, opts core.Options) (*core.MFA, error) {
	rules := make([]core.Rule, len(srcs))
	for i, s := range srcs {
		p, err := regexparse.ParsePCRE(s)
		if err != nil {
			return nil, fmt.Errorf("rule %d: %w", i+1, err)
		}
		rules[i] = core.Rule{Pattern: p, ID: int32(i + 1)}
	}
	return core.Compile(rules, opts)
}

// setup is what a rule reload pays: parse the rule text, compile it, and
// self-check the automaton.
func setup(srcs []string, opts core.Options) (*core.MFA, error) {
	m, err := compile(srcs, opts)
	if err != nil {
		return nil, err
	}
	return m, m.SelfCheck()
}

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (s[i+1]-s[i])*(pos-float64(i))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// Shares of -seconds given to each timed phase.
const (
	seqShare    = 0.4 // untraced: sequential phase; the inline phase gets the rest
	inlineShare = 0.6
	tracedShare = 0.3  // traced run: untraced and traced inline phases, each
	layerShare  = 0.05 // traced run: each single-layer loop
)

func scale(d time.Duration, f float64) time.Duration { return time.Duration(float64(d) * f) }

// benchUntraced measures the end-to-end metrics. It repeats set-up,
// sequential phase and inline phase w.rounds times, splitting the phases'
// time evenly: the host's speed drifts over tens of seconds, and
// interleaving spreads every metric's samples over the whole run instead
// of one stretch of it.
func benchUntraced(w workload, seed int64, dur time.Duration) (*report, error) {
	srcs, err := w.ruleSources()
	if err != nil {
		return nil, err
	}
	var setups []float64
	setupRound := func() (*core.MFA, error) {
		var m *core.MFA
		for i := 0; i < w.setupsPerRound; i++ {
			runtime.GC()
			t0 := time.Now()
			if m, err = setup(srcs, w.options()); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		return m, nil
	}
	m, err := setupRound()
	if err != nil {
		return nil, err
	}
	c, err := generate(w, seed)
	if err != nil {
		return nil, err
	}
	ref := c.reference(m)
	newRunner := func() flow.Runner { return m.NewRunner() }

	rep := &report{}
	var seqRates []float64
	var bins binStats
	var peakHeap float64
	var seqPasses, inlinePasses int
	for r := 0; r < w.rounds; r++ {
		if r > 0 {
			if _, err := setupRound(); err != nil {
				return nil, err
			}
		}
		sq, err := runSequential(c, ref, newRunner, scale(dur, seqShare/float64(w.rounds)), r == 0)
		if err != nil {
			return nil, err
		}
		rep.attempted += sq.segs
		rep.failed += sq.failed
		rep.fail("sequential phase", sq.checkErr)
		seqRates = append(seqRates, sq.rates...)
		seqPasses += sq.passes

		in, err := runInline(c, ref, inlineOpts{dur: scale(dur, inlineShare/float64(w.rounds)), newRunner: newRunner, heap: true})
		if err != nil {
			return nil, err
		}
		rep.attempted += in.segs
		rep.failed += in.failed
		rep.fail("inline phase", in.checkErr)
		bins.add(in.bins)
		peakHeap = max(peakHeap, in.peakHeapMB)
		inlinePasses += in.passes
	}

	// Interference from outside the process only ever slows a bin or a
	// pass down, and on a shared host it comes and goes over seconds. The
	// rates are therefore the upper quartile over bins and passes, and
	// the latencies the lower quartile over bins: what the code achieves
	// whenever the host leaves it at least a quarter of the run, and what
	// a change to the code moves.
	rep.add("setup_s", median(setups), "s", int64(len(setups)))
	rep.add("inline_mbps", quantile(bins.mbps, 0.75), "MiB/s", int64(len(bins.mbps)))
	rep.add("inline_lat_p50_us", quantile(bins.p50, 0.25), "us", bins.samples)
	rep.add("inline_lat_p90_us", quantile(bins.p90, 0.25), "us", bins.samples)
	rep.add("seq_mbps", quantile(seqRates, 0.75), "MiB/s", int64(len(seqRates)))
	rep.add("image_kb", float64(m.Stats().MemoryImageBytes())/1024, "KiB", 0)
	rep.add("peak_heap_mb", peakHeap, "MiB", 0)
	fmt.Printf("capture: %d flows, %d segments, %.1f MiB payload per pass; %d reference matches (%.2f per KiB)\n",
		len(c.streams), len(c.frames), float64(c.bytes)/(1<<20), refTotal(ref), float64(refTotal(ref))/(float64(c.bytes)/1024))
	fmt.Printf("rounds %d: sequential passes %d, inline passes %d\n", w.rounds, seqPasses, inlinePasses)
	fmt.Printf("inline %s\n", bins.spread())
	return rep, nil
}

// seqResult is what the sequential phase measured.
type seqResult struct {
	rates    []float64 // payload MiB/s of each timed pass
	segs     int64
	passes   int
	failed   int64
	checkErr error
}

// runSequential scans the capture with flow.ScanPcap and core runners on
// one goroutine, the mfascan path: an untimed pass first if warm, then
// timed passes for dur. Every pass is checked against the reference.
func runSequential(c *capture, ref []fingerprint, newRunner func() flow.Runner, dur time.Duration, warm bool) (seqResult, error) {
	mc := newMatchCounter(c)
	var r seqResult
	runtime.GC()
	scan := func() error {
		st, err := flow.ScanPcap(bytes.NewReader(c.pcap), flow.Config{}, newRunner, mc.add)
		if err != nil {
			return fmt.Errorf("sequential phase: %w", err)
		}
		r.passes++
		r.segs += int64(len(c.frames))
		r.failed += st.DroppedSegs + st.TenantDrops + int64(len(c.frames)) - st.Packets
		return nil
	}
	if warm {
		if err := scan(); err != nil {
			return r, err
		}
	}
	start := time.Now()
	for len(r.rates) == 0 || time.Since(start) < dur {
		t0 := time.Now()
		if err := scan(); err != nil {
			return r, err
		}
		r.rates = append(r.rates, float64(c.bytes)/time.Since(t0).Seconds()/(1<<20))
	}
	r.checkErr = mc.verify(ref, r.passes)
	return r, nil
}

// benchTraced measures the per-layer metrics.
func benchTraced(w workload, seed int64, dur time.Duration, spansPath string) (*report, error) {
	srcs, err := w.ruleSources()
	if err != nil {
		return nil, err
	}
	opts := w.options()
	runtime.GC()
	cl, err := timeCompile(srcs, opts)
	if err != nil {
		return nil, fmt.Errorf("compile layers: %w", err)
	}
	m, err := compile(srcs, opts)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := m.SelfCheck(); err != nil {
		return nil, err
	}
	selfCheck := time.Since(t0)

	c, err := generate(w, seed)
	if err != nil {
		return nil, err
	}
	ref := c.reference(m)
	newRunner := func() flow.Runner { return m.NewRunner() }
	rep := &report{}

	decodeNs, err := timeDecode(c, scale(dur, layerShare))
	if err != nil {
		return nil, fmt.Errorf("decode layer: %w", err)
	}
	reasmNs := timeReassembly(c, scale(dur, layerShare))
	dl, err := recordDelivery(c)
	if err != nil {
		return nil, fmt.Errorf("recording delivery: %w", err)
	}
	walk := timeWalk(m, dl, scale(dur, layerShare))
	filterNs, confirmed := timeFilter(m, walk, scale(dur, layerShare))
	if want := refTotal(ref); uint64(confirmed) != want {
		rep.fail("filter layer", fmt.Errorf("DFA walk + filter confirm %d matches, reference has %d", confirmed, want))
	}
	deliveredKB := float64(dl.bytes) / 1024
	dl = nil

	plain, err := runInline(c, ref, inlineOpts{dur: scale(dur, tracedShare), newRunner: newRunner})
	if err != nil {
		return nil, err
	}
	tr, err := runInline(c, ref, inlineOpts{dur: scale(dur, tracedShare), newRunner: newRunner, traced: true})
	if err != nil {
		return nil, err
	}
	for _, r := range []*inlineResult{plain, tr} {
		rep.attempted += r.segs
		rep.failed += r.failed
		rep.fail("inline phase", r.checkErr)
	}
	ts := tr.tr.stats(tr.timedSeq)
	if err := tr.tr.writeSpans(spansPath, tr.timedSeq); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	rp, err := replayProbe(c, ref, newRunner, w.replayPasses)
	if err != nil {
		return nil, fmt.Errorf("replay probe: %w", err)
	}

	st := tr.stats
	var maxPkts, sumPkts int64
	for _, p := range st.ShardPackets {
		sumPkts += p
		if p > maxPkts {
			maxPkts = p
		}
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}

	rep.add("regexparse.parse_ms", ms(cl.parse), "ms", 0)
	rep.add("splitter.split_ms", ms(cl.split), "ms", 0)
	rep.add("nfa.build_ms", ms(cl.nfa), "ms", 0)
	rep.add("dfa.build_ms", ms(cl.dfa), "ms", 0)
	rep.add("core.selfcheck_ms", ms(selfCheck), "ms", 0)
	rep.add("splitter.fragments", float64(cl.fragments), "count", 0)
	rep.add("dfa.states", float64(cl.states), "count", 0)
	rep.add("dfa.table_kb", float64(cl.tableBytes)/1024, "KiB", 0)
	rep.add("filter.mem_bits", float64(cl.memBits), "bits", 0)
	rep.add("filter.counters", float64(cl.counters), "count", 0)
	rep.add("pcap.decode_ns_per_seg", decodeNs, "ns/seg", 0)
	rep.add("input.emit_ns_per_seg", ts.emitNs, "ns/seg", 0)
	rep.add("input.arena_miss_ratio", ratio(tr.arena.Misses, tr.arena.Leases), "ratio", tr.arena.Leases)
	rep.add("engine.dispatch_ns_per_seg", ts.dispatchNs, "ns/seg", 0)
	rep.add("engine.residence_us_p50", ts.residenceUsP50, "us", 0)
	rep.add("engine.queue_depth_mean", ts.queueDepthMean, "segs", 0)
	rep.add("engine.shard_skew", ratio(maxPkts*int64(len(st.ShardPackets)), sumPkts), "ratio", 0)
	rep.add("engine.shed_segs", float64(st.HardDrops+st.QueueDrops+st.WedgeDrops+st.UnhealthyDrops+st.PoisonedDrops), "count", 0)
	rep.add("flow.reasm_ns_per_seg", reasmNs, "ns/seg", 0)
	rep.add("flow.ooo_share", ratio(st.OutOfOrder, st.Packets), "ratio", st.Packets)
	rep.add("flow.dropped_segs", float64(st.DroppedSegs), "count", 0)
	rep.add("flow.runner_reuse_ratio", ratio(st.RunnersReused, st.FlowsTotal), "ratio", st.FlowsTotal)
	rep.add("core.feed_ns_per_byte", ts.feedNsPerByte, "ns/B", ts.feedBytes)
	rep.add("core.bytes_per_feed", ts.bytesPerFeed, "B", ts.feedCalls)
	rep.add("dfa.walk_ns_per_byte", walk.nsPerByte, "ns/B", 0)
	rep.add("dfa.candidates_per_kb", float64(walk.events)/deliveredKB, "1/KiB", walk.events)
	rep.add("filter.ns_per_event", filterNs, "ns/event", walk.events)
	rep.add("filter.selectivity", ratio(confirmed, walk.events), "ratio", walk.events)
	rep.add("runtime.allocs_per_seg", float64(plain.mallocs)/float64(plain.segs), "allocs/seg", plain.segs)
	rep.add("runtime.gc_cycles", float64(plain.gcs), "count", 0)
	plainMbps, trMbps := quantile(plain.bins.mbps, 0.75), quantile(tr.bins.mbps, 0.75)
	rep.add("trace.overhead_pct", (plainMbps-trMbps)/plainMbps*100, "%", 0)
	rep.add("engine.replay_hard_drops", float64(rp.hardDrops), "count", 0)
	rep.add("flow.replay_dropped_segs", float64(rp.droppedSegs), "count", 0)
	rep.add("replay.match_loss_pct", rp.lossPct, "%", 0)
	fmt.Printf("inline: untraced %.1f MiB/s, traced %.1f MiB/s; spans in %s\n", plainMbps, trMbps, spansPath)
	return rep, nil
}

// host is the fingerprint stored with every result.
type host struct {
	CPU          string         `json:"cpu"`
	NumCPU       int            `json:"num_cpu"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	GoVersion    string         `json:"go_version"`
	Commit       string         `json:"commit"`
	SourceSHA256 string         `json:"source_sha256"`
	Workload     string         `json:"workload"`
	Seed         int64          `json:"seed"`
	Seconds      int            `json:"seconds"`
	Traced       bool           `json:"traced"`
	Params       map[string]any `json:"params"`
}

func hostInfo(w workload, seed int64, seconds int, traced bool) host {
	return host{
		CPU:          cpuModel(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       gitCommit("."),
		SourceSHA256: sourceDigest("."),
		Workload:     w.name,
		Seed:         seed,
		Seconds:      seconds,
		Traced:       traced,
		Params:       w.params(),
	}
}

// gitCommit resolves HEAD from a .git directory in root, without running
// git; "unknown" when root is not a git checkout.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := bytes.CutPrefix(bytes.TrimSpace(head), []byte("ref: "))
	if !isRef {
		return string(ref)
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", string(ref))); err == nil {
		return string(bytes.TrimSpace(id))
	}
	f, err := os.Open(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if id, name, ok := bytes.Cut(sc.Bytes(), []byte(" ")); ok && string(name) == string(ref) {
			return string(id)
		}
	}
	return "unknown"
}
