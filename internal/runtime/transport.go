// Package runtime is the live realization of the paper's models: processes
// are goroutines, links are channels (or TCP connections), failure
// detection is a real heartbeat timeout, and the round structures of RS and
// RWS are driven by wall-clock deadlines and receive-or-suspect loops
// respectively. Where the simulation packages (rounds, step, emul) give
// exact adversarial control, this package shows the same algorithms — and
// the same separations — running under real concurrency.
//
// Lifecycle discipline: every goroutine started by this package is owned by
// a struct and joined on Close/Wait; nothing is fire-and-forget.
package runtime

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/netobs"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Packet is a raw message as seen by a transport. It is an alias of
// wire.Packet so that transport middleware (package faults) interoperates
// with this package without an import cycle.
type Packet = wire.Packet

// Transport is one endpoint of a network: a node sends encoded envelopes
// and receives packets on a channel.
type Transport interface {
	// LocalID returns the endpoint's process identity.
	LocalID() model.ProcessID
	// Send transmits data to the destination. It never blocks on the
	// receiver; delivery is asynchronous. The transport may keep data
	// until delivery, so the caller must not modify it after Send — only
	// a copying wrapper (Batcher) lets its caller reuse the buffer.
	Send(to model.ProcessID, data []byte) error
	// Recv returns the endpoint's delivery channel. The channel is closed
	// when the transport closes.
	Recv() <-chan Packet
	// Close shuts the endpoint down and releases its goroutines.
	Close() error
}

// ErrClosed is returned by Send after the network or endpoint closed.
var ErrClosed = errors.New("runtime: transport closed")

// DelayFunc decides the in-flight delay of one message. Returning a
// negative duration drops the message (used to emulate link loss toward
// crashed processes; the models here never lose messages between live
// processes).
type DelayFunc func(from, to model.ProcessID, data []byte) time.Duration

// ChanConfig configures an in-process network.
type ChanConfig struct {
	// MinDelay and MaxDelay bound the uniform random per-message delay.
	// The defaults (0, 1ms) model a fast synchronous network.
	MinDelay, MaxDelay time.Duration
	// Seed drives the random delays.
	Seed int64
	// Delay, if set, overrides the random delay entirely — the hook tests
	// use to play the SP adversary against specific messages.
	Delay DelayFunc
	// Buffer is each endpoint's delivery queue capacity (default 1024).
	Buffer int
	// Metrics receives the transport's message/byte counters (labelled
	// {transport="chan"}). Nil uses the process-wide obs.Default registry.
	Metrics *obs.Registry
	// Flight, if set, mirrors every transport record into the flight
	// recorder.
	Flight *netobs.Recorder
}

// ChanNetwork is a fully connected in-process network with per-message
// delivery delays.
//
// Delivery is one scheduler per network: Send draws the message's delay
// and files it in a min-heap ordered by (due time, send order); a single
// delivery goroutine sleeps until the earliest due time and moves every
// due message into its destination inbox. The goroutine starts on the
// first Send — building a network starts none — and Close joins it,
// abandoning whatever is still in flight.
type ChanNetwork struct {
	n     int
	cfg   ChanConfig
	epoch time.Time // due times are offsets from here

	mu      sync.Mutex
	rng     *rand.Rand
	closed  bool
	started bool
	queue   deliveryHeap
	seq     uint64

	inboxes []chan Packet
	wake    chan struct{} // a new earliest due time, or the first message
	done    chan struct{}
	wg      sync.WaitGroup

	tm *netobs.LinkTap
}

// delivery is one message in flight.
type delivery struct {
	due      time.Duration // since the network's epoch
	seq      uint64        // send order: equal due times deliver FIFO
	from, to model.ProcessID
	data     []byte
}

// deliveryHeap is a binary min-heap of in-flight messages by (due, seq).
type deliveryHeap []delivery

func (h deliveryHeap) less(i, j int) bool {
	if h[i].due != h[j].due {
		return h[i].due < h[j].due
	}
	return h[i].seq < h[j].seq
}

func (h *deliveryHeap) push(d delivery) {
	*h = append(*h, d)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// pop removes and returns the earliest delivery; the heap must be
// non-empty.
func (h *deliveryHeap) pop() delivery {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q[last] = delivery{} // release the payload
	q = q[:last]
	for i := 0; ; {
		min, l, r := i, 2*i+1, 2*i+2
		if l < len(q) && q.less(l, min) {
			min = l
		}
		if r < len(q) && q.less(r, min) {
			min = r
		}
		if min == i {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	*h = q
	return top
}

// NewChanNetwork builds an n-endpoint in-process network.
func NewChanNetwork(n int, cfg ChanConfig) *ChanNetwork {
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = time.Millisecond
	}
	if cfg.Buffer <= 0 {
		cfg.Buffer = 1024
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default
	}
	nw := &ChanNetwork{
		n:       n,
		cfg:     cfg,
		epoch:   time.Now(),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		inboxes: make([]chan Packet, n+1),
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
		tm:      netobs.NewLinkTap(reg, "chan", cfg.Flight),
	}
	for i := 1; i <= n; i++ {
		nw.inboxes[i] = make(chan Packet, cfg.Buffer)
	}
	return nw
}

// Telemetry returns the network's per-link telemetry tap.
func (nw *ChanNetwork) Telemetry() *netobs.LinkTap { return nw.tm }

// Endpoint returns process id's transport.
func (nw *ChanNetwork) Endpoint(id model.ProcessID) Transport {
	return &chanEndpoint{nw: nw, id: id}
}

// MaxDelay returns the network's delivery bound — the Δ that timeout-based
// failure detection builds on.
func (nw *ChanNetwork) MaxDelay() time.Duration { return nw.cfg.MaxDelay }

// send schedules a delayed delivery. The network keeps data until the
// message is delivered or abandoned.
func (nw *ChanNetwork) send(from, to model.ProcessID, data []byte) error {
	if !to.Valid(nw.n) {
		return fmt.Errorf("runtime: send to invalid destination %v", to)
	}
	nw.mu.Lock()
	if nw.closed {
		nw.mu.Unlock()
		return ErrClosed
	}
	var delay time.Duration
	if nw.cfg.Delay != nil {
		delay = nw.cfg.Delay(from, to, data)
	} else {
		span := nw.cfg.MaxDelay - nw.cfg.MinDelay
		delay = nw.cfg.MinDelay
		if span > 0 {
			delay += time.Duration(nw.rng.Int63n(int64(span)))
		}
	}
	// Counted under the lock, so the send is on the books before the
	// scheduler can deliver it.
	nw.tm.Sent(from, to, len(data))
	if delay < 0 {
		nw.mu.Unlock()
		nw.tm.Dropped(from, to, netobs.DropLoss) // injected link loss: sent but never delivered
		return nil
	}
	if !nw.started {
		nw.started = true
		nw.wg.Add(1)
		go nw.deliverLoop()
	}
	nw.queue.push(delivery{due: time.Since(nw.epoch) + delay, seq: nw.seq, from: from, to: to, data: data})
	nw.seq++
	earliest := nw.queue[0].seq == nw.seq-1
	nw.mu.Unlock()
	if earliest {
		select {
		case nw.wake <- struct{}{}:
		default:
		}
	}
	return nil
}

// deliverLoop is the network's delivery goroutine: it moves due messages
// into their inboxes and sleeps until the next due time, a new earliest
// message, or Close.
func (nw *ChanNetwork) deliverLoop() {
	defer nw.wg.Done()
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	var due []delivery // owned by this goroutine, reused across sweeps
	for {
		nw.mu.Lock()
		now := time.Since(nw.epoch)
		for len(nw.queue) > 0 && nw.queue[0].due <= now {
			due = append(due, nw.queue.pop())
		}
		next := time.Duration(-1)
		if len(nw.queue) > 0 {
			next = nw.queue[0].due
		}
		nw.mu.Unlock()

		for i := range due {
			nw.deliver(due[i])
			due[i] = delivery{}
		}
		due = due[:0]

		var fire <-chan time.Time
		if next >= 0 {
			timer.Reset(next - time.Since(nw.epoch))
			fire = timer.C
		}
		select {
		case <-fire:
		case <-nw.wake:
		case <-nw.done:
			timer.Stop()
			return
		}
		if fire != nil && !timer.Stop() {
			// Fired, or fired and already received: drain so the next
			// Reset starts from an empty channel.
			select {
			case <-timer.C:
			default:
			}
		}
	}
}

// deliver hands one due message to its destination inbox.
func (nw *ChanNetwork) deliver(d delivery) {
	select {
	case nw.inboxes[d.to] <- Packet{From: d.from, Data: d.data}:
		nw.tm.Received(d.from, d.to, len(d.data))
		nw.tm.QueueDepth(d.from, d.to, len(nw.inboxes[d.to]))
	default:
		// Inbox full: a stalled receiver must not wedge the scheduler (and,
		// transitively, Close) forever. The overflow is documented link
		// loss, visible in the dropped counter.
		nw.tm.Dropped(d.from, d.to, netobs.DropOverflow)
	}
}

// Close shuts the network down, joins the delivery goroutine and abandons
// the messages still in flight.
func (nw *ChanNetwork) Close() error {
	nw.mu.Lock()
	if nw.closed {
		nw.mu.Unlock()
		return nil
	}
	nw.closed = true
	close(nw.done)
	nw.mu.Unlock()
	nw.wg.Wait()
	nw.mu.Lock()
	nw.queue = nil
	nw.mu.Unlock()
	return nil
}

type chanEndpoint struct {
	nw *ChanNetwork
	id model.ProcessID
}

var _ Transport = (*chanEndpoint)(nil)

// LocalID implements Transport.
func (e *chanEndpoint) LocalID() model.ProcessID { return e.id }

// Send implements Transport.
func (e *chanEndpoint) Send(to model.ProcessID, data []byte) error {
	return e.nw.send(e.id, to, data)
}

// Recv implements Transport.
func (e *chanEndpoint) Recv() <-chan Packet { return e.nw.inboxes[e.id] }

// Close implements Transport. Endpoints share the network's lifetime; a
// single endpoint close is a no-op so that one crashing node does not tear
// the network down for the others.
func (e *chanEndpoint) Close() error { return nil }
