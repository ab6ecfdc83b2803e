package netem

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/harmless-sdn/harmless/internal/stats"
)

// ErrLinkClosed is returned by Send after Close.
var ErrLinkClosed = errors.New("netem: link closed")

// Receiver consumes frames arriving at a port. The frame slice is owned
// by the receiver after the call (ownership transfer, no copies on the
// fast path).
type Receiver func(frame []byte)

// BatchReceiver consumes a vector of frames arriving at a port
// together. Ownership of each frame transfers to the receiver; the
// containing slice is only borrowed for the duration of the call and
// may be reused by the deliverer afterwards (the dataplane package
// documents these rules).
type BatchReceiver func(frames [][]byte)

// LinkConfig parameterizes a link. The zero value is a synchronous,
// lossless, zero-latency, infinite-bandwidth link — the configuration
// used by deterministic tests.
type LinkConfig struct {
	// Async selects queued goroutine delivery with the timing model.
	Async bool
	// Latency is the one-way propagation delay (async mode only).
	Latency time.Duration
	// BandwidthBps is the line rate in bits/s; 0 means infinite
	// (async mode only).
	BandwidthBps float64
	// LossProb is the independent per-frame drop probability [0,1).
	LossProb float64
	// QueueLen is the per-direction queue capacity in frames for
	// async mode; 0 means a default of 512. Frames arriving at a full
	// queue are tail-dropped.
	QueueLen int
	// RxBatch bounds how many queued frames one async wakeup drains
	// into a single batch delivery; 0 means a default of 64. Only
	// untimed async links (no latency, no bandwidth cap) coalesce:
	// with a timing model each frame keeps its own arrival instant.
	RxBatch int
	// Seed seeds the loss process; links with the same seed drop the
	// same frames.
	Seed int64
	// Scheduler switches async mode to virtual-time delivery: instead
	// of pump goroutines sleeping on the wall clock, every frame is
	// scheduled as a Scheduler callback at its modeled arrival instant
	// (departure per the serialization horizon, plus Latency). FIFO
	// order per direction is preserved — arrival instants are
	// monotonic per sender and equal deadlines fire in registration
	// order. QueueLen bounds the frames in flight per direction
	// (tail-drop beyond it); RxBatch is not used. Ignored unless Async
	// is set.
	Scheduler Scheduler
	// Name is used in diagnostics.
	Name string
}

// receivers is the pair of functions a device attached to a Port.
type receivers struct {
	frame Receiver
	batch BatchReceiver
}

// Link is a full-duplex point-to-point link with two Ports.
type Link struct {
	cfg   LinkConfig
	sched Scheduler // non-nil: virtual-time async delivery
	a, b  *Port

	lossMu sync.Mutex
	rng    *rand.Rand

	closeOnce sync.Once
	done      chan struct{}
}

// Port is one end of a Link. A device attaches by calling SetReceiver
// and transmits with Send.
type Port struct {
	link     *Link
	peer     *Port
	name     string
	counters stats.PortCounters

	// recv is the attached device's receivers, published as one
	// immutable value so delivery reads it without a lock; recvMu
	// serializes the writers.
	recv   atomic.Pointer[receivers]
	recvMu sync.Mutex

	// async state (nil in sync and virtual modes)
	queue chan []byte
	// inflight counts scheduled-but-undelivered frames sent by this
	// port (virtual mode's queue occupancy, tail-dropped at QueueLen)
	inflight atomic.Int64
	// timing model state, owned by the sender side
	timeMu   sync.Mutex
	nextFree time.Time
}

// NewLink creates a link with the given configuration and returns it;
// its two ends are available via A and B.
func NewLink(cfg LinkConfig) *Link {
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 512
	}
	if cfg.RxBatch <= 0 {
		cfg.RxBatch = 64
	}
	l := &Link{cfg: cfg, done: make(chan struct{})}
	if cfg.LossProb > 0 {
		l.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	l.a = &Port{link: l, name: cfg.Name + "/A"}
	l.b = &Port{link: l, name: cfg.Name + "/B"}
	l.a.peer, l.b.peer = l.b, l.a
	l.a.recv.Store(&receivers{})
	l.b.recv.Store(&receivers{})
	switch {
	case cfg.Async && cfg.Scheduler != nil:
		l.sched = cfg.Scheduler // virtual time: no pumps, no queues
	case cfg.Async:
		l.a.queue = make(chan []byte, cfg.QueueLen)
		l.b.queue = make(chan []byte, cfg.QueueLen)
		go l.pump(l.a) // drains frames sent BY a, delivers to b
		go l.pump(l.b)
	}
	return l
}

// A returns the first port.
func (l *Link) A() *Port { return l.a }

// B returns the second port.
func (l *Link) B() *Port { return l.b }

// Close shuts the link down; subsequent Sends fail with ErrLinkClosed.
func (l *Link) Close() {
	l.closeOnce.Do(func() { close(l.done) })
}

func (l *Link) dropped() bool {
	if l.rng == nil {
		return false
	}
	l.lossMu.Lock()
	defer l.lossMu.Unlock()
	return l.rng.Float64() < l.cfg.LossProb
}

// pump drains the queue of frames sent by p and delivers them to the
// peer, applying the latency/bandwidth model in real time. On an
// untimed link (no latency, no bandwidth cap) every frame is due the
// moment it is queued, so one wakeup drains the backlog into a vector
// — up to RxBatch frames — and delivers it as one batch; with a
// timing model each frame keeps its own arrival instant and is
// delivered individually.
func (l *Link) pump(p *Port) {
	untimed := l.cfg.Latency <= 0 && l.cfg.BandwidthBps <= 0
	var batch [][]byte
	if untimed {
		batch = make([][]byte, 0, l.cfg.RxBatch)
	}
	for {
		select {
		case <-l.done:
			return
		case frame := <-p.queue:
			if untimed {
				batch = append(batch[:0], frame)
			drain:
				for len(batch) < l.cfg.RxBatch {
					select {
					case f := <-p.queue:
						batch = append(batch, f)
					default:
						break drain
					}
				}
				p.peer.deliverBatch(batch)
				clear(batch)
				continue
			}
			arrival := l.schedule(p, len(frame))
			//harmless:allow-wallclock async mode paces real goroutines on wall time; virtual mode never reaches here
			if d := time.Until(arrival); d > 0 {
				select {
				case <-time.After(d): //harmless:allow-wallclock same: async-mode pacing
				case <-l.done:
					return
				}
			}
			p.peer.deliver(frame)
		}
	}
}

// now reads the link's timeline: the scheduler's in virtual mode, the
// wall clock otherwise.
func (l *Link) now() time.Time {
	if l.sched != nil {
		return l.sched.Now()
	}
	return time.Now() //harmless:allow-wallclock fallback timeline when no scheduler is injected
}

// schedule computes the arrival time of a frame of size n sent by p,
// advancing the sender's serialization horizon.
func (l *Link) schedule(p *Port, n int) time.Time {
	now := l.now()
	p.timeMu.Lock()
	start := p.nextFree
	if start.Before(now) {
		start = now
	}
	var ser time.Duration
	if l.cfg.BandwidthBps > 0 {
		ser = time.Duration(float64(n*8) / l.cfg.BandwidthBps * float64(time.Second))
	}
	p.nextFree = start.Add(ser)
	dep := p.nextFree
	p.timeMu.Unlock()
	return dep.Add(l.cfg.Latency)
}

// Name returns the port's diagnostic name.
func (p *Port) Name() string { return p.name }

// Counters exposes the port's statistics.
func (p *Port) Counters() *stats.PortCounters { return &p.counters }

// SetReceiver installs the function invoked for every frame arriving
// at this port. It may be called again to replace the receiver; doing
// so also clears any batch receiver, so a device swap cannot leave
// batched deliveries flowing to the previous device (re-install one
// with SetBatchReceiver afterwards, as AttachNetPort does).
func (p *Port) SetReceiver(r Receiver) {
	p.recvMu.Lock()
	p.recv.Store(&receivers{frame: r})
	p.recvMu.Unlock()
}

// SetBatchReceiver installs the function invoked when a frame vector
// arrives at this port. Ports without one fall back to the per-frame
// receiver for every frame of a batch, so batch delivery is always
// safe to use; attaching a per-frame wrapper with WrapReceiver clears
// it again.
func (p *Port) SetBatchReceiver(r BatchReceiver) {
	p.recvMu.Lock()
	rs := *p.recv.Load()
	rs.batch = r
	p.recv.Store(&rs)
	p.recvMu.Unlock()
}

// WrapReceiver replaces the current receiver with wrap(current) —
// used to interpose taps/captures after a device has attached. The
// batch receiver is cleared so every frame — batched or not — flows
// through the wrapped per-frame chain; a batch short-circuiting past
// the wrapper would blind the tap.
func (p *Port) WrapReceiver(wrap func(Receiver) Receiver) {
	p.recvMu.Lock()
	p.recv.Store(&receivers{frame: wrap(p.recv.Load().frame)})
	p.recvMu.Unlock()
}

// Send transmits a frame towards the peer port. In synchronous mode
// the peer's receiver runs on the calling goroutine; in asynchronous
// mode the frame is queued (tail-drop on overflow). The caller
// relinquishes ownership of the slice.
func (p *Port) Send(frame []byte) error {
	select {
	case <-p.link.done:
		return ErrLinkClosed
	default:
	}
	p.counters.RecordTx(len(frame))
	if p.link.dropped() {
		p.counters.TxDropped.Inc()
		return nil
	}
	if l := p.link; l.sched != nil { // virtual-time async delivery
		if p.inflight.Load() >= int64(l.cfg.QueueLen) {
			p.counters.TxDropped.Inc()
			return nil
		}
		p.inflight.Add(1)
		arrival := l.schedule(p, len(frame))
		l.sched.AfterFunc(arrival.Sub(l.sched.Now()), func() {
			p.inflight.Add(-1)
			select {
			case <-l.done:
				return
			default:
			}
			p.peer.deliver(frame)
		})
		return nil
	}
	if p.queue == nil { // synchronous
		p.peer.deliver(frame)
		return nil
	}
	select {
	case p.queue <- frame:
	default:
		p.counters.TxDropped.Inc()
	}
	return nil
}

// SendBatch transmits a vector of frames towards the peer port in one
// call. Ownership of each frame transfers; the containing slice stays
// the caller's and may be reused after the call returns. On a
// synchronous lossless link the whole vector is delivered as one
// batch; otherwise each frame goes through the per-frame Send path so
// loss sampling and queue tail-drops stay frame-exact.
func (p *Port) SendBatch(frames [][]byte) error {
	if len(frames) == 0 {
		return nil
	}
	select {
	case <-p.link.done:
		return ErrLinkClosed
	default:
	}
	if p.queue == nil && p.link.sched == nil && p.link.rng == nil {
		var bytes uint64
		for _, f := range frames {
			bytes += uint64(len(f))
		}
		p.counters.TxPackets.Add(uint64(len(frames)))
		p.counters.TxBytes.Add(bytes)
		p.peer.deliverBatch(frames)
		return nil
	}
	for _, f := range frames {
		if err := p.Send(f); err != nil {
			return err
		}
	}
	return nil
}

// deliver hands one frame to the attached device's receiver.
//
//harmless:hotpath
func (p *Port) deliver(frame []byte) {
	p.counters.RecordRx(len(frame))
	r := p.recv.Load().frame
	if r == nil {
		p.counters.RxDropped.Inc()
		return
	}
	r(frame)
}

// deliverBatch hands a frame vector to the attached device: to its
// batch receiver when one is installed, frame by frame otherwise.
//
//harmless:hotpath
func (p *Port) deliverBatch(frames [][]byte) {
	var bytes uint64
	for _, f := range frames {
		bytes += uint64(len(f))
	}
	p.counters.RxPackets.Add(uint64(len(frames)))
	p.counters.RxBytes.Add(bytes)
	rs := p.recv.Load()
	if rs.batch != nil {
		rs.batch(frames)
		return
	}
	if rs.frame == nil {
		p.counters.RxDropped.Add(uint64(len(frames)))
		return
	}
	for _, f := range frames {
		rs.frame(f)
	}
}

// String identifies the port.
func (p *Port) String() string { return fmt.Sprintf("port(%s)", p.name) }
