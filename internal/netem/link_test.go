package netem

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSyncLinkDelivers(t *testing.T) {
	l := NewLink(LinkConfig{Name: "t"})
	defer l.Close()
	var got []byte
	l.B().SetReceiver(func(f []byte) { got = f })
	if err := l.A().Send([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 {
		t.Fatalf("got %v", got)
	}
	// Reverse direction.
	var got2 []byte
	l.A().SetReceiver(func(f []byte) { got2 = f })
	if err := l.B().Send([]byte{9}); err != nil {
		t.Fatal(err)
	}
	if len(got2) != 1 || got2[0] != 9 {
		t.Fatalf("got2 %v", got2)
	}
}

func TestSyncLinkCounters(t *testing.T) {
	l := NewLink(LinkConfig{})
	defer l.Close()
	l.B().SetReceiver(func([]byte) {})
	for i := 0; i < 5; i++ {
		if err := l.A().Send(make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if tx := l.A().Counters().TxPackets.Load(); tx != 5 {
		t.Errorf("TxPackets = %d", tx)
	}
	if rx := l.B().Counters().RxBytes.Load(); rx != 500 {
		t.Errorf("RxBytes = %d", rx)
	}
}

func TestNoReceiverCountsDrop(t *testing.T) {
	l := NewLink(LinkConfig{})
	defer l.Close()
	if err := l.A().Send([]byte{1}); err != nil {
		t.Fatal(err)
	}
	if d := l.B().Counters().RxDropped.Load(); d != 1 {
		t.Errorf("RxDropped = %d", d)
	}
}

func TestClosedLink(t *testing.T) {
	l := NewLink(LinkConfig{})
	l.Close()
	if err := l.A().Send([]byte{1}); err != ErrLinkClosed {
		t.Errorf("err = %v", err)
	}
	l.Close() // idempotent
}

func TestLossDeterministic(t *testing.T) {
	countRx := func(seed int64) uint64 {
		l := NewLink(LinkConfig{LossProb: 0.5, Seed: seed})
		defer l.Close()
		var rx atomic.Uint64
		l.B().SetReceiver(func([]byte) { rx.Add(1) })
		for i := 0; i < 1000; i++ {
			_ = l.A().Send([]byte{byte(i)})
		}
		return rx.Load()
	}
	a, b := countRx(42), countRx(42)
	if a != b {
		t.Errorf("same seed must drop identically: %d vs %d", a, b)
	}
	if a < 300 || a > 700 {
		t.Errorf("50%% loss delivered %d/1000", a)
	}
}

func TestAsyncLinkDelivers(t *testing.T) {
	l := NewLink(LinkConfig{Async: true})
	defer l.Close()
	var mu sync.Mutex
	var got [][]byte
	done := make(chan struct{}, 10)
	l.B().SetReceiver(func(f []byte) {
		mu.Lock()
		got = append(got, f)
		mu.Unlock()
		done <- struct{}{}
	})
	for i := 0; i < 10; i++ {
		if err := l.A().Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatal("timeout waiting for async delivery")
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 10 {
		t.Fatalf("got %d frames", len(got))
	}
	for i, f := range got {
		if f[0] != byte(i) {
			t.Fatalf("FIFO order violated at %d: %v", i, f[0])
		}
	}
}

func TestAsyncLinkLatency(t *testing.T) {
	const lat = 20 * time.Millisecond
	l := NewLink(LinkConfig{Async: true, Latency: lat})
	defer l.Close()
	arrived := make(chan time.Time, 1)
	l.B().SetReceiver(func([]byte) { arrived <- time.Now() })
	start := time.Now()
	if err := l.A().Send([]byte{1}); err != nil {
		t.Fatal(err)
	}
	select {
	case at := <-arrived:
		if d := at.Sub(start); d < lat {
			t.Errorf("arrived after %v, want >= %v", d, lat)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timeout")
	}
}

func TestAsyncLinkBandwidth(t *testing.T) {
	// 1 Mbit/s; 10 frames of 1250 bytes = 10 * 10ms serialization.
	l := NewLink(LinkConfig{Async: true, BandwidthBps: 1e6})
	defer l.Close()
	var rx atomic.Int64
	done := make(chan struct{})
	l.B().SetReceiver(func([]byte) {
		if rx.Add(1) == 10 {
			close(done)
		}
	})
	start := time.Now()
	for i := 0; i < 10; i++ {
		if err := l.A().Send(make([]byte, 1250)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("timeout")
	}
	if el := time.Since(start); el < 80*time.Millisecond {
		t.Errorf("10x10ms serialization finished in %v, want >= ~100ms", el)
	}
}

func TestAsyncQueueOverflowDrops(t *testing.T) {
	// Tiny queue and huge serialization delay: floods must tail-drop.
	l := NewLink(LinkConfig{Async: true, QueueLen: 4, BandwidthBps: 1000})
	defer l.Close()
	l.B().SetReceiver(func([]byte) {})
	for i := 0; i < 100; i++ {
		_ = l.A().Send(make([]byte, 1000))
	}
	if d := l.A().Counters().TxDropped.Load(); d == 0 {
		t.Error("expected tail drops on overflow")
	}
}

func TestHairpinReentrancy(t *testing.T) {
	// A receiver that sends back out the same port it received on (the
	// hairpin pattern) must not deadlock in sync mode.
	l := NewLink(LinkConfig{})
	defer l.Close()
	hops := 0
	l.B().SetReceiver(func(f []byte) {
		hops++
		if hops < 5 {
			_ = l.B().Send(f) // bounce back
		}
	})
	l.A().SetReceiver(func(f []byte) {
		hops++
		if hops < 5 {
			_ = l.A().Send(f)
		}
	})
	if err := l.A().Send([]byte{1}); err != nil {
		t.Fatal(err)
	}
	if hops != 5 {
		t.Errorf("hops = %d", hops)
	}
}

func TestManualClock(t *testing.T) {
	c := NewManualClock()
	t0 := c.Now()
	c.Advance(5 * time.Second)
	if d := c.Now().Sub(t0); d != 5*time.Second {
		t.Errorf("advanced %v", d)
	}
}

func TestRealClock(t *testing.T) {
	var c Clock = RealClock{}
	if c.Now().IsZero() {
		t.Error("real clock returned zero time")
	}
}

func BenchmarkSyncLinkSend(b *testing.B) {
	l := NewLink(LinkConfig{})
	defer l.Close()
	l.B().SetReceiver(func([]byte) {})
	frame := make([]byte, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.A().Send(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReceiverSwapDuringDelivery replaces a port's receivers while
// frames are delivered to it: delivery reads the published receiver
// pair without a lock, so every frame must reach exactly one receiver
// and none may be dropped. Meant for -race.
func TestReceiverSwapDuringDelivery(t *testing.T) {
	l := NewLink(LinkConfig{})
	defer l.Close()
	var got atomic.Int64
	rx := func([]byte) { got.Add(1) }
	brx := func(fs [][]byte) { got.Add(int64(len(fs))) }
	wrap := func(next Receiver) Receiver { return func(f []byte) { next(f) } }
	l.B().SetReceiver(rx)
	n := 2000
	if testing.Short() {
		n = 200
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			_ = l.A().Send([]byte{byte(i)})
			_ = l.A().SendBatch([][]byte{{1}, {2}})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			l.B().SetReceiver(rx)
			l.B().SetBatchReceiver(brx)
			l.B().WrapReceiver(wrap)
		}
	}()
	wg.Wait()
	if got.Load() != int64(3*n) {
		t.Errorf("receivers saw %d frames, want %d", got.Load(), 3*n)
	}
	if d := l.B().Counters().RxDropped.Load(); d != 0 {
		t.Errorf("%d frames dropped for want of a receiver", d)
	}
}
