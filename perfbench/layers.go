package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"matchfilter/internal/core"
	"matchfilter/internal/dfa"
	"matchfilter/internal/engine"
	"matchfilter/internal/filter"
	"matchfilter/internal/flow"
	"matchfilter/internal/input"
	"matchfilter/internal/nfa"
	"matchfilter/internal/pcap"
	"matchfilter/internal/regexparse"
	"matchfilter/internal/splitter"
	"matchfilter/internal/telemetry"
)

// repeatFor runs f at least once and until d has elapsed, returning the
// number of runs and the time they took.
func repeatFor(d time.Duration, f func()) (int, time.Duration) {
	start := time.Now()
	n := 0
	for n == 0 || time.Since(start) < d {
		f()
		n++
	}
	return n, time.Since(start)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// compileLayers runs core.Compile's stages one by one through each
// module's public functions and times them.
type compileLayers struct {
	parse, split, nfa, dfa time.Duration
	fragments, states      int
	tableBytes             int
	memBits, counters      int
}

func timeCompile(srcs []string, opts core.Options) (compileLayers, error) {
	var cl compileLayers
	t0 := time.Now()
	rules := make([]splitter.Rule, len(srcs))
	for i, s := range srcs {
		p, err := regexparse.ParsePCRE(s)
		if err != nil {
			return cl, fmt.Errorf("rule %d: %w", i+1, err)
		}
		rules[i] = splitter.Rule{Pattern: p, RuleID: int32(i + 1)}
	}
	t1 := time.Now()
	res, err := splitter.Split(rules, opts.Splitter)
	if err != nil {
		return cl, err
	}
	t2 := time.Now()
	nrules := make([]nfa.Rule, len(res.Fragments))
	for i, f := range res.Fragments {
		nrules[i] = nfa.Rule{Pattern: f.Pattern, MatchID: int(f.InternalID)}
	}
	n, err := nfa.Build(nrules)
	if err != nil {
		return cl, err
	}
	t3 := time.Now()
	d, err := dfa.FromNFA(n, opts.DFA)
	if err != nil {
		return cl, err
	}
	t4 := time.Now()
	cl.parse, cl.split, cl.nfa, cl.dfa = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)
	cl.fragments = len(res.Fragments)
	cl.states = d.NumStates()
	cl.tableBytes = d.TableBytes()
	cl.memBits = res.MemBits
	cl.counters = len(res.Counters)
	return cl, nil
}

// timeDecode measures pcap.Reader.Next + pcap.DecodeTCP per segment.
func timeDecode(c *capture, d time.Duration) (float64, error) {
	var err error
	runs, el := repeatFor(d, func() {
		pr, e := pcap.NewReader(bytes.NewReader(c.pcap))
		if e != nil {
			err = e
			return
		}
		for {
			pkt, e := pr.Next()
			if errors.Is(e, io.EOF) {
				return
			}
			if e == nil {
				_, e = pcap.DecodeTCP(pkt.Data)
			}
			if e != nil {
				err = e
				return
			}
		}
	})
	return float64(el) / float64(runs*len(c.frames)), err
}

type nopRunner struct{}

func (nopRunner) Feed([]byte, func(int32, int64)) {}
func (nopRunner) Reset()                          {}

// timeReassembly measures Assembler.HandleSegment per segment with a
// runner that does no matching, one fresh assembler per pass.
func timeReassembly(c *capture, d time.Duration) float64 {
	runs, el := repeatFor(d, func() {
		a := flow.NewAssembler(flow.Config{}, func() flow.Runner { return nopRunner{} }, nil)
		for _, seg := range c.segments {
			a.HandleSegment(seg)
		}
	})
	return float64(el) / float64(runs*len(c.segments))
}

// delivery is the in-order byte stream the assembler hands to runners,
// recorded once: chunks in delivery order, each tagged with the session
// (one flow's life on one runner) it belongs to.
type delivery struct {
	chunks   []chunk
	sessions int
	bytes    int64
}

type chunk struct {
	sess int
	data []byte
}

type recRunner struct {
	d    *delivery
	sess int // -1 until the first Feed after creation or Reset
}

func (r *recRunner) Feed(data []byte, _ func(int32, int64)) {
	if r.sess < 0 {
		r.sess = r.d.sessions
		r.d.sessions++
	}
	r.d.chunks = append(r.d.chunks, chunk{r.sess, data})
	r.d.bytes += int64(len(data))
}

func (r *recRunner) Reset() { r.sess = -1 }

// recordDelivery runs the sequential path once with recording runners.
// The pcap reader allocates every frame, so recorded chunks stay valid.
func recordDelivery(c *capture) (*delivery, error) {
	d := &delivery{}
	_, err := flow.ScanPcap(bytes.NewReader(c.pcap), flow.Config{},
		func() flow.Runner { return &recRunner{d: d, sess: -1} }, nil)
	return d, err
}

// candidate is one internal-id event of the DFA walk.
type candidate struct {
	id  int32
	pos int64
}

// walkResult is the DFA layer alone: the walk over MFA.DFA() on the
// recorded delivery, and the candidate stream it yields per session.
type walkResult struct {
	nsPerByte float64
	cands     [][]candidate
	events    int64
}

func timeWalk(m *core.MFA, dl *delivery, d time.Duration) walkResult {
	eng := dfa.NewEngine(m.DFA())
	runners := make([]*dfa.Runner, dl.sessions)
	for i := range runners {
		runners[i] = eng.NewRunner()
	}
	w := walkResult{cands: make([][]candidate, dl.sessions)}
	for _, ch := range dl.chunks {
		s := ch.sess
		runners[s].Feed(ch.data, func(id int32, pos int64) {
			w.cands[s] = append(w.cands[s], candidate{id, pos})
		})
	}
	for _, cs := range w.cands {
		w.events += int64(len(cs))
	}
	var count int64
	onMatch := func(int32, int64) { count++ }
	runs, el := repeatFor(d, func() {
		for _, r := range runners {
			r.Reset()
		}
		for _, ch := range dl.chunks {
			runners[ch.sess].Feed(ch.data, onMatch)
		}
	})
	w.nsPerByte = float64(el) / float64(int64(runs)*dl.bytes)
	return w
}

// timeFilter replays the candidate stream through Program.ApplyAll with
// per-session Memory, Registers and Counters. It returns ns per event and
// the confirmed matches of one pass.
func timeFilter(m *core.MFA, w walkResult, d time.Duration) (float64, int64) {
	prog := m.Program()
	type state struct {
		mem  filter.Memory
		regs filter.Registers
		ctrs filter.Counters
	}
	st := make([]state, len(w.cands))
	for i := range st {
		st[i] = state{prog.NewMemory(), prog.NewRegisters(), prog.NewCounters()}
	}
	var confirmed int64
	runs, el := repeatFor(d, func() {
		confirmed = 0
		for i, cs := range w.cands {
			s := st[i]
			s.mem.Reset()
			s.regs.Reset()
			s.ctrs.Reset()
			for _, c := range cs {
				if _, ok := prog.ApplyAll(s.mem, s.regs, s.ctrs, c.id, c.pos); ok {
					confirmed++
				}
			}
		}
	})
	if w.events == 0 {
		return 0, confirmed
	}
	return float64(el) / float64(int64(runs)*w.events), confirmed
}

// replayResult is the full-speed replay probe: the capture streamed
// through input.PcapStream (the mfaserve -pcap path) with no flow control.
type replayResult struct {
	hardDrops, droppedSegs int64
	lossPct                float64
}

func replayProbe(c *capture, ref []fingerprint, newRunner func() flow.Runner, passes int) (replayResult, error) {
	readers := []io.Reader{bytes.NewReader(c.pcap)}
	for i := 1; i < passes; i++ {
		readers = append(readers, bytes.NewReader(c.pcap[pcapHeaderLen:]))
	}
	reg := telemetry.NewRegistry()
	e := engine.New(engineConfig(reg), newRunner, nil)
	sup := input.NewSupervisor(input.Config{
		Sink:    e,
		Metrics: reg,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "perfbench: replay: "+format+"\n", args...)
		},
	})
	sup.Add(input.NewPcapStream("replay", io.MultiReader(readers...)))
	runErr := sup.Run(context.Background())
	if err := e.Close(); err != nil {
		return replayResult{}, err
	}
	if runErr != nil {
		return replayResult{}, runErr
	}
	st := e.Stats()
	want := float64(refTotal(ref)) * float64(passes)
	r := replayResult{hardDrops: st.HardDrops, droppedSegs: st.DroppedSegs}
	if want > 0 {
		r.lossPct = (want - float64(st.Matches)) / want * 100
	}
	return r, nil
}

// pcapHeaderLen is the classic pcap global header: records follow it, so
// a capture's records can be appended to another capture's stream.
const pcapHeaderLen = 24
