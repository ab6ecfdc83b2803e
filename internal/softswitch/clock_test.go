package softswitch

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/telemetry"
)

// countingClock counts the reads of the clock it wraps.
type countingClock struct {
	*netem.ManualClock
	reads atomic.Int64
}

func (c *countingClock) Now() time.Time {
	c.reads.Add(1)
	return c.ManualClock.Now()
}

// clockSwitch builds a two-table switch on clk: table 0 sends in_port
// 1 on to table 1, which outputs to port 2. Both entries carry the
// given idle timeout and ask for a flow-removed notification. Egress
// is discarded.
func clockSwitch(t *testing.T, clk netem.Clock, idle uint16, opts ...Option) (*Switch, *discardBackend) {
	t.Helper()
	sw := New("clk", 0xc1, append([]Option{WithClock(clk)}, opts...)...)
	sw.AttachPort(1, "in", &discardBackend{})
	egress := &discardBackend{}
	sw.AttachPort(2, "out", egress)
	m := openflow.Match{}
	m.WithInPort(1)
	for _, fm := range []*openflow.FlowMod{
		{TableID: 0, Match: m, Instructions: []openflow.Instruction{&openflow.InstrGotoTable{TableID: 1}}},
		{TableID: 1, Instructions: []openflow.Instruction{apply(out(2))}},
	} {
		fm.Command, fm.Priority, fm.IdleTimeout, fm.Flags = openflow.FlowAdd, 10, idle, openflow.FlowFlagSendFlowRem
		fm.BufferID, fm.OutPort, fm.OutGroup = openflow.NoBuffer, openflow.PortAny, openflow.GroupAny
		if _, err := sw.ApplyFlowMod(fm); err != nil {
			t.Fatal(err)
		}
	}
	return sw, egress
}

// clockBatch returns a fresh batch of n frames of n distinct flows.
func clockBatch(t *testing.T, n int) [][]byte {
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = udpFrame(t, macA, macB, ipA, ipB, uint16(1000+i), 2, "c")
	}
	return frames
}

// clockConfigs are the datapath configurations whose hits are stamped:
// cache credits, the specializer, and the plain table walk.
var clockConfigs = []struct {
	name      string
	opts      func() []Option
	telemetry bool
}{
	{"cache", func() []Option { return nil }, false},
	{"cache+telemetry", func() []Option { return []Option{WithTelemetry(telemetry.NewTable(telemetry.Config{}))} }, true},
	{"specialized", func() []Option { return []Option{WithMicroflowCache(false), WithSpecialization(true)} }, false},
	{"uncached", func() []Option { return []Option{WithMicroflowCache(false)} }, false},
}

// TestBatchClockReads: a ReceiveBatch of 32 frames that hit permanent
// entries reads the clock zero times (once with telemetry, which
// timestamps the batch), and 32 hits on idle-timeout entries read it
// once between them, in every datapath configuration.
func TestBatchClockReads(t *testing.T) {
	const n = 32
	for _, cfg := range clockConfigs {
		for _, idle := range []uint16{0, 5} {
			t.Run(fmt.Sprintf("%s/idle=%d", cfg.name, idle), func(t *testing.T) {
				clk := &countingClock{ManualClock: netem.NewManualClock()}
				sw, egress := clockSwitch(t, clk, idle, cfg.opts()...)
				sw.ReceiveBatch(1, clockBatch(t, n)) // warm: walks, installs
				var hits0 uint64
				if cs := sw.CacheStats(); cs != nil {
					hits0 = cs.Hits.Load()
				}
				before := clk.reads.Load()
				sw.ReceiveBatch(1, clockBatch(t, n))
				reads := clk.reads.Load() - before

				if egress.frames != 2*n {
					t.Fatalf("forwarded %d of %d frames", egress.frames, 2*n)
				}
				if cs := sw.CacheStats(); cs != nil && cs.Hits.Load()-hits0 != n {
					t.Fatalf("%d cache hits of %d frames", cs.Hits.Load()-hits0, n)
				}
				want := int64(0)
				if idle > 0 || cfg.telemetry {
					want = 1
				}
				if reads != want {
					t.Errorf("a batch of %d hits read the clock %d times, want %d", n, reads, want)
				}
			})
		}
	}
}

// TestHitRefreshesIdleTimeout: idle expiry on a manual clock behaves as
// it did with one clock read per hit. A batch of hits keeps both
// tables' idle-timeout entries alive from the batch's time, and they
// expire exactly IdleTimeout after the last batch.
func TestHitRefreshesIdleTimeout(t *testing.T) {
	for _, cfg := range clockConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			clk := netem.NewManualClock()
			sw, egress := clockSwitch(t, clk, 5, cfg.opts()...)
			sw.ReceiveBatch(1, clockBatch(t, 8))
			clk.Advance(4 * time.Second)
			sw.ReceiveBatch(1, clockBatch(t, 8)) // last hit at 4s
			clk.Advance(4 * time.Second)
			if removed := sw.SweepExpired(); len(removed) != 0 {
				t.Fatalf("expired %d entries 4s after their last hit", len(removed))
			}
			clk.Advance(1 * time.Second)
			removed := sw.SweepExpired()
			if len(removed) != 2 {
				t.Fatalf("expired %d entries 5s after their last hit, want both", len(removed))
			}
			for _, r := range removed {
				if r.Reason != openflow.FlowRemovedIdleTimeout || r.Duration != 9*time.Second {
					t.Errorf("table %d entry removed for reason %d after %v", r.TableID, r.Reason, r.Duration)
				}
			}
			sw.ReceiveBatch(1, clockBatch(t, 8))
			if egress.frames != 16 {
				t.Errorf("forwarded %d frames after expiry, want the 16 before it", egress.frames)
			}
		})
	}
}
