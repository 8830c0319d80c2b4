package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"sort"

	"matchfilter/internal/core"
	"matchfilter/internal/patterns"
	"matchfilter/internal/pcap"
	"matchfilter/internal/trace"
)

// workload is one named traffic mix and the rule set it is scanned
// against. The program under test sees only the generated capture; the
// parameters here are the benchmark's.
type workload struct {
	name     string
	sets     []string // built-in rule sets, unioned in this order
	counters bool     // compile bounded repeats to filter counter registers

	// The capture holds flows flows of minFlowBytes to maxFlowBytes, cut
	// into segments of minSeg to maxSeg bytes. New flows open with a
	// probability that falls as the open set fills, so about live flows
	// are open at once; with live == flows every flow stays open for most
	// of the capture.
	flows        int
	live         int
	minFlowBytes int
	maxFlowBytes int
	minSeg       int
	maxSeg       int

	oooProb  float64 // chance that a segment is swapped with the flow's next one
	wordProb float64 // chance per payload token of embedding a rule literal

	// An untraced run does rounds rounds of set-up, sequential phase and
	// inline phase; sparse does two because its set-up alone takes
	// seconds.
	rounds         int
	setupsPerRound int // set-ups in each round; setup_s is their median
	replayPasses   int // capture passes streamed by the replay probe
}

var workloads = []workload{
	{
		name: "dense", sets: []string{"S24", "CTR24"}, counters: true,
		flows: 64, live: 64,
		minFlowBytes: 128 << 10, maxFlowBytes: 128 << 10, minSeg: 536, maxSeg: 536,
		oooProb: 0.05, wordProb: 0.12,
		rounds: 3, setupsPerRound: 1, replayPasses: 8,
	},
	{
		name: "sparse", sets: []string{"B217p"},
		flows: 128, live: 128,
		minFlowBytes: 256 << 10, maxFlowBytes: 256 << 10, minSeg: 1460, maxSeg: 1460,
		oooProb: 0.01, wordProb: 0.0001,
		rounds: 2, setupsPerRound: 1, replayPasses: 4,
	},
	{
		name: "churn", sets: []string{"C8"},
		flows: 16000, live: 1000,
		minFlowBytes: 1 << 10, maxFlowBytes: 4 << 10, minSeg: 64, maxSeg: 256,
		oooProb: 0.02, wordProb: 0.01,
		rounds: 3, setupsPerRound: 8, replayPasses: 2,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// params is the workload description stored with every result.
func (w workload) params() map[string]any {
	return map[string]any{
		"sets": w.sets, "counters": w.counters,
		"flows": w.flows, "live_flows": w.live,
		"flow_bytes":    [2]int{w.minFlowBytes, w.maxFlowBytes},
		"segment_bytes": [2]int{w.minSeg, w.maxSeg},
		"ooo_prob":      w.oooProb, "word_prob": w.wordProb,
		"rounds": w.rounds, "setups_per_round": w.setupsPerRound, "replay_passes": w.replayPasses,
	}
}

// ruleSources returns the regex text of the workload's rule set.
func (w workload) ruleSources() ([]string, error) {
	var out []string
	for _, set := range w.sets {
		src, err := patterns.Sources(set)
		if err != nil {
			return nil, err
		}
		out = append(out, src...)
	}
	return out, nil
}

// words returns the literals the payload generator embeds: every set's
// literal segments, deduplicated and sorted.
func (w workload) words() ([]string, error) {
	seen := map[string]bool{}
	for _, set := range w.sets {
		ws, err := patterns.AllWords(set)
		if err != nil {
			return nil, err
		}
		for _, x := range ws {
			seen[x] = true
		}
	}
	out := make([]string, 0, len(seen))
	for x := range seen {
		out = append(out, x)
	}
	sort.Strings(out)
	return out, nil
}

// capture is a generated workload capture plus everything the benchmark
// derives from it once, outside any timed phase.
type capture struct {
	pcap     []byte   // the capture file
	frames   [][]byte // its Ethernet frames, in capture order
	payload  []int32  // TCP payload length of each frame
	bytes    int64    // TCP payload bytes in one pass
	streams  [][]byte // each flow's full byte stream, by flow index
	flowIdx  map[pcap.FlowKey]int32
	segments []pcap.Segment // decoded frames, for the reassembly layer
}

// generate builds the workload's capture. The same seed gives a
// byte-identical capture.
func generate(w workload, seed int64) (*capture, error) {
	words, err := w.words()
	if err != nil {
		return nil, err
	}
	h := fnv.New64a()
	io.WriteString(h, w.name)
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))

	c := &capture{}
	var buf bytes.Buffer
	if c.streams, err = synthesize(&buf, w, words, rng); err != nil {
		return nil, err
	}
	c.pcap = buf.Bytes()
	return c, c.index()
}

// index splits the capture into frames and numbers its flows in order of
// first appearance, which the generator makes equal to stream order.
func (c *capture) index() error {
	pr, err := pcap.NewReader(bytes.NewReader(c.pcap))
	if err != nil {
		return err
	}
	slab := make([]byte, 0, len(c.pcap))
	pr.SetAlloc(func(n int) []byte {
		slab = slab[:len(slab)+n]
		return slab[len(slab)-n:]
	})
	c.flowIdx = make(map[pcap.FlowKey]int32, len(c.streams))
	for {
		pkt, err := pr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		seg, err := pcap.DecodeTCP(pkt.Data)
		if err != nil {
			return fmt.Errorf("generated frame %d: %w", len(c.frames), err)
		}
		if _, ok := c.flowIdx[seg.Key]; !ok {
			c.flowIdx[seg.Key] = int32(len(c.flowIdx))
		}
		c.frames = append(c.frames, pkt.Data)
		c.payload = append(c.payload, int32(len(seg.Payload)))
		c.segments = append(c.segments, seg)
		c.bytes += int64(len(seg.Payload))
	}
	if len(c.flowIdx) != len(c.streams) {
		return fmt.Errorf("capture holds %d flows, generator wrote %d", len(c.flowIdx), len(c.streams))
	}
	return nil
}

// reference scans every flow's whole stream with one fresh runner: the
// ground truth each timed phase must reproduce, flow by flow.
func (c *capture) reference(m *core.MFA) []fingerprint {
	ref := make([]fingerprint, len(c.streams))
	for i, s := range c.streams {
		for _, ev := range m.Run(s) {
			ref[i].add(ev.RuleID, ev.Pos)
		}
	}
	return ref
}

// synthFlow is one flow of the capture generator.
type synthFlow struct {
	key  pcap.FlowKey
	data []byte
	segs []int // segment lengths, in stream order
	next int   // next segment to send
	off  int   // stream offset of segs[next]
}

// synthesize writes the workload's capture with pcap.EncodeTCP and
// returns each flow's byte stream. Every step either opens a flow (SYN)
// or advances a random open one: its next data segment, or its FIN once
// all data is out. A flow opens with probability (live - open) / live,
// so opens and closes interleave and about live flows stay open. Each
// data segment is, with probability w.oooProb, swapped with the flow's
// following segment.
func synthesize(out io.Writer, w workload, words []string, rng *rand.Rand) ([][]byte, error) {
	pw := pcap.NewWriter(out)
	var ts, usec uint32
	emit := func(f *synthFlow, seq uint32, flags uint8, payload []byte) error {
		usec += 1 + uint32(rng.Intn(20))
		if usec >= 1_000_000 {
			usec -= 1_000_000
			ts++
		}
		frame := pcap.EncodeTCP(f.key, seq, flags, payload)
		return pw.WritePacket(pcap.Packet{TsSec: ts, TsUsec: usec, Data: frame})
	}
	sendSeg := func(f *synthFlow, k, off int) error {
		// Data starts at sequence 1: the SYN occupies 0.
		return emit(f, uint32(1+off), pcap.FlagACK|pcap.FlagPSH, f.data[off:off+f.segs[k]])
	}

	streams := make([][]byte, w.flows)
	var live []*synthFlow
	opened := 0
	for opened < w.flows || len(live) > 0 {
		if opened < w.flows && rng.Intn(w.live) >= len(live) {
			i := opened
			opened++
			n := w.minFlowBytes + rng.Intn(w.maxFlowBytes-w.minFlowBytes+1)
			f := &synthFlow{
				key: pcap.FlowKey{
					SrcIP:   0x0a000000 | uint32(i+1),
					DstIP:   0xc0a80101,
					SrcPort: uint16(1024 + i%60000),
					DstPort: 80,
				},
				data: trace.TextLike(n, rng.Int63(), words, w.wordProb),
			}
			for left := n; left > 0; {
				s := w.minSeg + rng.Intn(w.maxSeg-w.minSeg+1)
				if s > left {
					s = left
				}
				f.segs = append(f.segs, s)
				left -= s
			}
			streams[i] = f.data
			live = append(live, f)
			if err := emit(f, 0, pcap.FlagSYN, nil); err != nil {
				return nil, err
			}
			continue
		}
		j := rng.Intn(len(live))
		f := live[j]
		if f.next == len(f.segs) {
			if err := emit(f, uint32(1+len(f.data)), pcap.FlagFIN|pcap.FlagACK, nil); err != nil {
				return nil, err
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		k, off := f.next, f.off
		if k+1 < len(f.segs) && rng.Float64() < w.oooProb {
			if err := sendSeg(f, k+1, off+f.segs[k]); err != nil {
				return nil, err
			}
			if err := sendSeg(f, k, off); err != nil {
				return nil, err
			}
			f.next, f.off = k+2, off+f.segs[k]+f.segs[k+1]
			continue
		}
		if err := sendSeg(f, k, off); err != nil {
			return nil, err
		}
		f.next, f.off = k+1, off+f.segs[k]
	}
	return streams, nil
}
