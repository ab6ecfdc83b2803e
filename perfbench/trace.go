package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"

	"github.com/harmless-sdn/harmless/internal/netem"
)

// spanName identifies where a span was recorded.
type spanName uint8

const (
	spanSend      spanName = iota // the benchmark's Host.SendRaw call
	spanLegacyIn                  // host -> legacy port receiver
	spanS4                        // trunk -> SS_1 port receiver (SS_1, patch, SS_2, SS_1)
	spanLegacyOut                 // trunk -> legacy port receiver, return direction
	spanHostRx                    // legacy -> host port receiver
	spanNext                      // a chunk of fabric workload Next calls
	spanRoute                     // a chunk of fabric Topology.RouteInto calls
	spanRun                       // one FleetSim.Run
)

var spanNames = [...]string{
	spanSend:      "fabric.send",
	spanLegacyIn:  "legacy.ingress",
	spanS4:        "harmless.s4",
	spanLegacyOut: "legacy.egress",
	spanHostRx:    "fabric.host_rx",
	spanNext:      "fabric.workload_next",
	spanRoute:     "fabric.route",
	spanRun:       "sim.run",
}

// span is one timed interval. Spans of one frame share its id; parent
// is the index of the innermost enclosing span of the same frame (-1
// for a root), filled in by analyze.
type span struct {
	frame      uint64
	start, end int64
	parent     int32
	name       spanName
}

// tracer keeps spans in a preallocated buffer; record is lock-free so
// the control-plane goroutine can record next to the caller.
type tracer struct {
	spans []span
	n     atomic.Int64
}

func newTracer(capacity int) *tracer { return &tracer{spans: make([]span, capacity)} }

func (t *tracer) record(name spanName, frame uint64, start, end int64) {
	i := t.n.Add(1) - 1
	if i < int64(len(t.spans)) {
		t.spans[i] = span{frame: frame, start: start, end: end, parent: -1, name: name}
	}
}

// full reports whether the buffer is close enough to capacity that the
// next batch of frames (64 frames of five spans) might not fit.
func (t *tracer) full() bool { return t.n.Load()+512 > int64(len(t.spans)) }

func (t *tracer) recorded() []span {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// tap records a span around every frame the port delivers.
// WrapReceiver clears the port's batch receiver, so a tapped port
// hands frames over one at a time: the traced run takes the per-frame
// receive path at every tapped port.
func (t *tracer) tap(p *netem.Port, name spanName) {
	p.WrapReceiver(func(next netem.Receiver) netem.Receiver {
		return func(f []byte) {
			id := frameID(f)
			start := nanotime()
			next(f)
			t.record(name, id, start, nanotime())
		}
	})
}

// tapChain puts a span at each netem port boundary of the chain.
func (t *tracer) tapChain(c *chain) {
	for p := 1; p <= chainHosts; p++ {
		t.tap(c.legacySide[p], spanLegacyIn)
		t.tap(c.hostSide[p], spanHostRx)
	}
	t.tap(c.dep.TrunkLink.B(), spanS4)
	t.tap(c.dep.TrunkLink.A(), spanLegacyOut)
}

// analyze sorts spans by frame and start, links each to its innermost
// enclosing span of the same frame, and returns every span's self
// time: its duration minus the durations of its children.
func analyze(spans []span) (self []int64) {
	slices.SortFunc(spans, func(a, b span) int {
		switch {
		case a.frame != b.frame:
			return cmp.Compare(a.frame, b.frame)
		case a.start != b.start:
			return cmp.Compare(a.start, b.start)
		default: // the enclosing span first
			return cmp.Compare(b.end, a.end)
		}
	})
	self = make([]int64, len(spans))
	var stack []int32
	for i := range spans {
		s := &spans[i]
		if i == 0 || spans[i-1].frame != s.frame {
			stack = stack[:0]
		}
		for len(stack) > 0 && spans[stack[len(stack)-1]].end < s.end {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			s.parent = stack[len(stack)-1]
			self[s.parent] -= s.end - s.start
		}
		self[i] += s.end - s.start
		stack = append(stack, int32(i))
	}
	return self
}

// hopBudget is the mean self time per frame of each chain hop, over
// the frames whose root is a background SendRaw.
type hopBudget struct {
	frames int
	selfNs map[spanName]float64
}

// hopNames are the chain hops, in path order; their self times sum to
// the root span.
var hopNames = []spanName{spanSend, spanLegacyIn, spanS4, spanLegacyOut, spanHostRx}

func chainBudget(spans []span, self []int64) hopBudget {
	b := hopBudget{selfNs: make(map[spanName]float64)}
	sums := make(map[spanName]int64)
	for i, s := range spans {
		if s.name == spanSend && s.parent < 0 {
			b.frames++
		}
		root := i
		for spans[root].parent >= 0 {
			root = int(spans[root].parent)
		}
		if spans[root].name == spanSend {
			sums[s.name] += self[i]
		}
	}
	for _, n := range hopNames {
		b.selfNs[n] = ratio(float64(sums[n]), float64(b.frames))
	}
	return b
}

func (b hopBudget) total() float64 {
	var t float64
	for _, n := range hopNames {
		t += b.selfNs[n]
	}
	return t
}

// writeSpans writes the spans as CSV, one line per span, and returns
// the file's path.
func writeSpans(dir, workload string, seed int64, spans []span, self []int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.csv", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# perfbench spans, workload %s, seed %d, times in ns since process start\n", workload, seed)
	fmt.Fprintln(w, "# tapped ports use the per-frame receive path: netem WrapReceiver clears batch receivers")
	fmt.Fprintln(w, "index,frame,name,parent,start_ns,end_ns,self_ns")
	for i, s := range spans {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d,%d\n", i, s.frame, spanNames[s.name], s.parent, s.start, s.end, self[i])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
