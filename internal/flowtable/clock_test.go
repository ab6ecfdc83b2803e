package flowtable

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/openflow"
)

// countingClock counts the reads of the clock it wraps.
type countingClock struct {
	netem.Clock
	reads atomic.Int64
}

func (c *countingClock) Now() time.Time {
	c.reads.Add(1)
	return c.Clock.Now()
}

// TestPermanentEntryHitsReadNoClock: a hit on an entry without an idle
// timeout, by table lookup or cache credit, reads the clock zero times
// and still counts.
func TestPermanentEntryHitsReadNoClock(t *testing.T) {
	clk := &countingClock{Clock: netem.NewManualClock()}
	tbl := NewTable(0, clk)
	e := &Entry{Priority: 1, Match: &Match{InPortSet: true, InPort: 1}, HardTimeout: 30}
	if err := tbl.Add(e); err != nil {
		t.Fatal(err)
	}
	k := udpKey(1, hostA, hostB, ipA, ipB, 1, 2)
	before := clk.reads.Load()
	var now Stamp
	now.Reset(clk)
	for i := 0; i < 16; i++ {
		if tbl.Lookup(k, 10) != e || tbl.LookupAt(k, 10, &now) != e {
			t.Fatal("lookup missed the entry")
		}
		tbl.CreditHit(e, 10, &now)
	}
	if n := clk.reads.Load() - before; n != 0 {
		t.Errorf("48 hits on a permanent entry read the clock %d times", n)
	}
	if e.Packets() != 48 || e.Bytes() != 480 {
		t.Errorf("entry counted %d packets, %d bytes", e.Packets(), e.Bytes())
	}
	if lookups, matched := tbl.Stats(); lookups != 48 || matched != 48 {
		t.Errorf("table counted %d lookups, %d matched", lookups, matched)
	}
}

// TestIdleEntryHitsShareOneRead: hits on idle-timeout entries stamped
// from one Stamp read the clock once between them; a plain Lookup
// reads it once per hit.
func TestIdleEntryHitsShareOneRead(t *testing.T) {
	clk := &countingClock{Clock: netem.NewManualClock()}
	tbl := NewTable(0, clk)
	e1 := &Entry{Priority: 1, Match: &Match{InPortSet: true, InPort: 1}, IdleTimeout: 10}
	e2 := &Entry{Priority: 1, Match: &Match{InPortSet: true, InPort: 2}, IdleTimeout: 10}
	_ = tbl.Add(e1)
	_ = tbl.Add(e2)
	k := udpKey(2, hostA, hostB, ipA, ipB, 1, 2)

	before := clk.reads.Load()
	var now Stamp
	now.Reset(clk)
	for i := 0; i < 16; i++ {
		tbl.CreditHit(e1, 10, &now)
		if tbl.LookupAt(k, 10, &now) != e2 {
			t.Fatal("lookup missed e2")
		}
	}
	if n := clk.reads.Load() - before; n != 1 {
		t.Errorf("32 hits sharing one stamp read the clock %d times, want 1", n)
	}
	before = clk.reads.Load()
	for i := 0; i < 4; i++ {
		tbl.Lookup(k, 10)
	}
	if n := clk.reads.Load() - before; n != 4 {
		t.Errorf("4 unstamped lookups read the clock %d times, want 4", n)
	}
}

// TestCreditHitKeepsIdleEntryAlive is TestTableTimeouts for cache
// credits: a credited hit refreshes the idle timeout at the stamp's
// time, and a stamp reset after the clock moves reads the new time.
func TestCreditHitKeepsIdleEntryAlive(t *testing.T) {
	clk := netem.NewManualClock()
	tbl := NewTable(0, clk)
	idle := &Entry{Priority: 1, Match: &Match{InPortSet: true, InPort: 1}, IdleTimeout: 10}
	forever := &Entry{Priority: 1, Match: &Match{InPortSet: true, InPort: 3}}
	_ = tbl.Add(idle)
	_ = tbl.Add(forever)

	var now Stamp
	now.Reset(clk)
	tbl.CreditHit(idle, 10, &now) // stamped at 0s
	clk.Advance(8 * time.Second)
	tbl.CreditHit(idle, 10, &now) // same stamp: still 0s
	clk.Advance(3 * time.Second)  // last hit 11s ago
	removed := tbl.ExpireEntries()
	if len(removed) != 1 || removed[0].Entry != idle || removed[0].Reason != openflow.FlowRemovedIdleTimeout {
		t.Fatalf("idle expiry at the stamp's time: %+v", removed)
	}

	_ = tbl.Add(idle)
	clk.Advance(8 * time.Second)
	now.Reset(clk)
	tbl.CreditHit(idle, 10, &now) // stamped at the new time
	tbl.CreditHit(forever, 10, &now)
	clk.Advance(8 * time.Second) // last hit 8s ago
	if removed := tbl.ExpireEntries(); len(removed) != 0 {
		t.Fatalf("premature expiry: %+v", removed)
	}
	clk.Advance(2 * time.Second)
	removed = tbl.ExpireEntries()
	if len(removed) != 1 || removed[0].Entry != idle {
		t.Fatalf("idle expiry: %+v", removed)
	}
	if tbl.Len() != 1 {
		t.Errorf("len %d, the permanent entry must stay", tbl.Len())
	}
}
