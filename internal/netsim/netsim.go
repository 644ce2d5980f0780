// Package netsim simulates the asynchronous reliable message-passing
// system that the paper's memory consistency systems run on (§1, §2):
// a finite set of nodes exchanging messages over reliable channels.
//
// Channels are FIFO per ordered node pair by default (what the PRAM
// protocol of §5 requires); a non-FIFO mode delivers every message
// independently after a seeded random latency, exercising protocols —
// such as slow memory — that tolerate reordering. The network counts
// every message through a metrics.Collector and supports quiescence
// detection (wait until no message is in flight), which gives tests
// and experiments deterministic cut points.
//
// Every transport also carries a deterministic virtual-time Clock —
// logical ticks advanced per delivered message and jumped forward at
// idle points — that the protocol layer uses to schedule flush
// deadlines reproducibly; see clock.go.
//
// Simulated latency comes in two modes. The real-sleep mode
// (Options.MaxLatency alone) delays each delivery by a seeded uniform
// random wall-clock sleep. The virtual mode (Options.VirtualLatency)
// turns the same knob into virtual-time delivery deadlines on the
// clock: delays are drawn from a pluggable seeded distribution
// (Options.LatencyDist), deliveries run serialized on one totally
// ordered timeline shared with flush timers and idle jumps, and the
// seed fully determines the message trace on every engine — latency
// studies become deterministic and cost no wall time; see vlat.go.
//
// The reliable-channel assumption itself can be withdrawn: faults.go
// injects seeded per-message drop/duplication plus hard faults
// (directed link cuts, node crashes) behind the FaultController
// interface, and reliable.go layers sequence numbers, cumulative acks,
// and virtual-clock retransmission on top of any transport to win the
// assumption back — with abandonment surfaced through OnAbandon after
// a bounded retry budget, so a permanent partition yields an error,
// not a hang. Fault windows should be bounded in virtual time by
// scheduling the un-fault on the Clock (see the facade's CutLinkFor):
// a window driven from an application goroutine has no defined virtual
// length, because idle jumps cross retransmit deadlines at memory
// speed while the goroutine is descheduled.
package netsim

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"partialdsm/internal/metrics"
)

// Message is one unit of communication between MCS processes. The
// payload is opaque to the network; the byte split and the variable
// list feed the metrics collector.
type Message struct {
	From, To int
	Kind     string // protocol message kind, for accounting
	Payload  []byte
	// CtrlBytes and DataBytes describe how the payload splits into
	// control information and variable data.
	CtrlBytes, DataBytes int
	// Vars lists the shared variables this message carries information
	// about (for the touch matrix). The list stays the sender's: it is
	// read only inside Send, and whoever holds the message afterwards
	// must neither read nor recycle it.
	Vars []string
	// Epoch tags the frame with the sender's placement epoch. It is
	// transport metadata, not payload bytes — static clusters leave it 0
	// and their wire traffic is unchanged. During a reconfiguration the
	// protocols use it to tell straggler frames sent under an older
	// epoch apart from post-flip traffic (see mcs reconfig).
	Epoch uint64
	// SharedPayload marks Payload as shared across several
	// Sends — a multicast fanning one encoded frame out to its whole
	// destination set. Receivers must not mutate a shared buffer;
	// transports deliver it like any other payload.
	SharedPayload bool
	// SharedRefs, when non-nil on a SharedPayload message, counts the
	// multicast's outstanding deliveries. The receiver that decrements
	// it to zero becomes the payload's sole owner and may recycle the
	// buffer (mcs.RecycleFrame does). Transports never touch it.
	SharedRefs *atomic.Int32

	// dropped marks a message consumed by fault injection: it flows
	// through the normal delivery pipeline — in-flight accounting,
	// FIFO sequencing and virtual-time scheduling are identical — but
	// is discarded instead of reaching the destination handler.
	dropped bool
	// faultDrawn marks a message whose fault fate is already decided
	// (an injected duplicate), exempting it from further draws.
	faultDrawn bool
}

// Handler processes a delivered message. Handlers run on network
// goroutines and may call Send; they must be safe for concurrent use.
type Handler func(Message)

// Options configure a Network.
type Options struct {
	// FIFO preserves per-ordered-pair delivery order (default true via
	// NewNetwork; the zero Options value means non-FIFO).
	FIFO bool
	// MaxLatency bounds the simulated per-message delivery latency.
	// Without VirtualLatency each delivery really sleeps a uniform
	// random duration in [0, MaxLatency]; with it, MaxLatency scales
	// the virtual-time delay distribution instead (LatencyDist) and no
	// wall time is spent. Zero means deliver as fast as scheduling
	// allows. Negative values are rejected.
	MaxLatency time.Duration
	// Seed feeds the latency generator; same seed, same latencies. In
	// virtual mode the seed fully determines the delivery schedule —
	// and therefore the message trace — on every engine.
	Seed int64
	// VirtualLatency simulates MaxLatency as deterministic virtual-time
	// delivery deadlines on the transport clock instead of real sleeps:
	// each message's delay is derived from (Seed, src, dst, per-pair
	// sequence), deliveries run serialized on the clock's totally
	// ordered timeline, and Quiesce/Close drain via clock jumps in
	// microseconds of wall time. See vlat.go.
	VirtualLatency bool
	// LatencyDist selects the virtual-mode delay distribution; the
	// empty string means LatencyUniform. Requires VirtualLatency.
	LatencyDist LatencyDist
	// LatencyMatrix gives per-ordered-link maximum delays for the
	// LatencyMatrix distribution; must be NumNodes×NumNodes (zero
	// entries deliver with zero delay), with MaxLatency left zero.
	LatencyMatrix [][]time.Duration
	// Faults enables seeded probabilistic fault injection: per-message
	// drop and duplication drawn from hash(Faults.Seed, src, dst,
	// per-pair sequence), so one seed yields the same fault schedule
	// on every engine and every run. Nil injects nothing. Hard faults
	// (partitions, crashes) need no configuration — see
	// FaultController. See faults.go.
	Faults *FaultConfig
	// Metrics receives per-message accounting; nil disables accounting.
	// RecordMessage runs inside Send and takes no lock in steady state;
	// RecordDelay and RecordFault take the collector's mutex.
	// In virtual mode it also receives each message's delivery delay
	// (RecordDelay), making delay histograms measurable. With Faults it
	// also counts each injected fault by kind (RecordFault).
	Metrics *metrics.Collector
	// Workers sets the delivery worker-pool size for transports that
	// use one (Sharded). Zero picks max(2, GOMAXPROCS); the classic
	// Network ignores it.
	Workers int
}

// Network connects n nodes. Create with NewNetwork, install handlers
// with SetHandler, then exchange messages with Send. Close releases the
// delivery goroutines.
type Network struct {
	n    int
	opts Options

	clk         *vclock
	pairs       *pairWatch
	vlat        *vnet          // non-nil in virtual-latency mode; owns the delivery schedule
	faults      *faultInjector // always non-nil; cheap no-op without configured faults
	pausedLinks atomic.Int32   // links currently held by PauseLink
	inflightA   atomic.Int64   // lock-free mirror of inflight for the idle fast path

	mu       sync.Mutex
	rng      *rand.Rand //lint:allow seededrand real-latency jitter only (guarded by mu); virtual mode draws via PairDraw
	handlers []Handler
	queues   []*pairQueue // FIFO mode: one per ordered pair, lazily started
	inflight int
	quiet    *sync.Cond
	closed   bool
	wg       sync.WaitGroup
}

// pairQueue is an unbounded FIFO queue served by one goroutine. The
// latencies slice parallels items: each message carries the delivery
// latency drawn for it at send time. A paused queue holds its messages
// until resumed.
type pairQueue struct {
	mu        sync.Mutex
	cond      *sync.Cond
	items     []Message
	latencies []time.Duration
	paused    bool
	closed    bool
}

// NewNetwork returns a network of n nodes with FIFO per-pair channels
// and the given options. Handlers must be installed with SetHandler
// before any message addressed to the node is sent.
func NewNetwork(n int, opts Options) *Network {
	if n <= 0 {
		panic(fmt.Sprintf("netsim: network needs at least one node, got %d", n))
	}
	if err := opts.validate(n); err != nil {
		panic("netsim: " + err.Error())
	}
	nw := &Network{
		n:        n,
		opts:     opts,
		rng:      rand.New(rand.NewSource(opts.Seed)),
		handlers: make([]Handler, n),
		pairs:    newPairWatch(n),
		faults:   newFaultInjector(n, opts),
	}
	stalled := nw.idle
	if opts.VirtualLatency {
		nw.vlat = newVNet(n, opts)
		stalled = func() bool { return nw.inflightA.Load() == nw.vlat.parkedCount() }
	}
	nw.clk = newVClock(nw.idle, stalled, func() bool { return nw.pausedLinks.Load() > 0 }, nw.pairs)
	nw.quiet = sync.NewCond(&nw.mu)
	if nw.vlat != nil {
		nw.vlat.clk = nw.clk
		nw.vlat.deliver = nw.deliver
		nw.vlat.start()
	} else if opts.FIFO {
		nw.queues = make([]*pairQueue, n*n)
	}
	return nw
}

// NumNodes returns the number of nodes.
func (nw *Network) NumNodes() int { return nw.n }

// Clock returns the network's virtual-time clock.
func (nw *Network) Clock() Clock { return nw.clk }

// InboundIdle reports whether no message is in flight to `to`
// (PairMonitor).
func (nw *Network) InboundIdle(to int) bool { return nw.pairs.InboundIdle(to) }

// OnInboundIdle registers a one-shot hook for when inbound traffic to
// `to` next drains (PairMonitor).
func (nw *Network) OnInboundIdle(to int, fn func()) { nw.pairs.OnInboundIdle(to, fn) }

// idle reports whether no message can still make progress — the
// clock's idleness probe. Messages held on paused links do not count:
// a paused link models an arbitrarily slow channel, and virtual time
// must keep advancing for the rest of the network while it is held
// (the deterministic-asynchrony experiments pause a link and then poll
// for traffic that flows around it). The busy case answers from the
// lock-free in-flight mirror; the walk touches the per-pair queues
// only when something is in flight while a link is paused.
func (nw *Network) idle() bool {
	if nw.vlat != nil {
		// Virtual mode: a message counts as idle-able while it sits in
		// the clock (a jump delivers it) or parked behind a paused pair.
		return nw.inflightA.Load() == nw.vlat.pending()
	}
	if nw.inflightA.Load() != 0 && nw.pausedLinks.Load() == 0 {
		return false // definitely busy: messages in flight, none of them held
	}
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if nw.inflight == 0 {
		return true
	}
	if nw.pausedLinks.Load() == 0 {
		return false
	}
	held := 0
	for _, q := range nw.queues {
		if q == nil {
			continue
		}
		q.mu.Lock()
		if q.paused {
			held += len(q.items)
		}
		q.mu.Unlock()
	}
	return nw.inflight == held
}

// SetHandler installs the delivery handler for a node. It must be
// called before any message is sent to the node and must not be called
// concurrently with Send.
func (nw *Network) SetHandler(node int, h Handler) {
	if node < 0 || node >= nw.n {
		panic(fmt.Sprintf("netsim: node %d out of range [0,%d)", node, nw.n))
	}
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.handlers[node] = h
}

// Send enqueues a message for asynchronous delivery. It never blocks on
// the receiver. Sending to an unknown node or on a closed network
// panics (a programming error in the protocol layer).
func (nw *Network) Send(msg Message) {
	if dup := nw.faults.inject(&msg); dup != nil {
		nw.send1(msg)
		nw.send1(*dup)
		return
	}
	nw.send1(msg)
}

// send1 enqueues one (possibly fault-marked) message.
func (nw *Network) send1(msg Message) {
	if msg.To < 0 || msg.To >= nw.n || msg.From < 0 || msg.From >= nw.n {
		panic(fmt.Sprintf("netsim: message endpoints %d→%d out of range", msg.From, msg.To))
	}
	nw.mu.Lock()
	if nw.closed {
		nw.mu.Unlock()
		panic("netsim: send on closed network")
	}
	if nw.handlers[msg.To] == nil {
		nw.mu.Unlock()
		panic(fmt.Sprintf("netsim: node %d has no handler installed", msg.To))
	}
	nw.inflight++
	nw.inflightA.Add(1)
	nw.pairs.sent(msg.To)
	var latency time.Duration
	if nw.vlat == nil && nw.opts.MaxLatency > 0 {
		latency = drawRealLatency(nw.rng, nw.opts.MaxLatency)
	}
	if nw.opts.Metrics != nil {
		nw.opts.Metrics.RecordMessage(msg.Kind, msg.From, msg.To, msg.CtrlBytes, msg.DataBytes, msg.Vars)
	}
	if nw.vlat != nil {
		nw.mu.Unlock()
		nw.vlat.send(msg)
		return
	}
	if !nw.opts.FIFO {
		nw.mu.Unlock()
		nw.wg.Add(1)
		go func() {
			defer nw.wg.Done()
			if latency > 0 {
				time.Sleep(latency) //lint:allow realtime real-latency engine: latency IS wall-clock sleep here
			}
			nw.deliver(msg)
		}()
		return
	}
	q := nw.pairQueueLocked(msg.From, msg.To)
	nw.mu.Unlock()
	// The per-pair latency is applied by the queue goroutine before the
	// handler runs, preserving FIFO order on the pair.
	q.push(msg, latency)
}

func (nw *Network) pairQueueLocked(from, to int) *pairQueue {
	idx := from*nw.n + to
	if q := nw.queues[idx]; q != nil {
		return q
	}
	q := &pairQueue{}
	q.cond = sync.NewCond(&q.mu)
	nw.queues[idx] = q
	nw.wg.Add(1)
	go nw.servePair(q)
	return q
}

func (q *pairQueue) push(msg Message, latency time.Duration) {
	q.mu.Lock()
	q.items = append(q.items, msg)
	q.latencies = append(q.latencies, latency)
	q.cond.Signal()
	q.mu.Unlock()
}

func (nw *Network) servePair(q *pairQueue) {
	defer nw.wg.Done()
	for {
		q.mu.Lock()
		for (len(q.items) == 0 || q.paused) && !q.closed {
			q.cond.Wait()
		}
		if len(q.items) == 0 && q.closed {
			q.mu.Unlock()
			return
		}
		msg := q.items[0]
		latency := q.latencies[0]
		q.items = q.items[1:]
		q.latencies = q.latencies[1:]
		q.mu.Unlock()
		if latency > 0 {
			time.Sleep(latency) //lint:allow realtime real-latency engine: FIFO pair queue sleeps wall-clock by design
		}
		nw.deliver(msg)
	}
}

// deliver runs the destination handler, advances virtual time by one
// tick, and settles in-flight accounting; the delivery that empties the
// network gives the clock an idle-advance opportunity. A fault-dropped
// message — or one whose destination crashed while it was in flight —
// skips only the handler call: its accounting is identical, so lossy
// runs quiesce exactly like lossless ones.
func (nw *Network) deliver(msg Message) {
	if nw.faults.deliverable(&msg) {
		nw.mu.Lock()
		h := nw.handlers[msg.To]
		nw.mu.Unlock()
		if h != nil {
			h(msg)
		}
	}
	// Pair hooks and due timers fire while this message still counts as
	// in flight, so their sends cannot race a spurious idle point.
	if nw.pairs.delivered(msg.To) {
		nw.clk.requestPairHooks()
	}
	nw.clk.tick()
	nw.mu.Lock()
	nw.inflight--
	nw.inflightA.Add(-1)
	idle := nw.inflight == 0
	if idle {
		nw.quiet.Broadcast()
	}
	nw.mu.Unlock()
	if idle {
		nw.clk.AdvanceIdle()
	}
}

// PauseLink holds back delivery on the ordered link from → to:
// messages sent on it queue up but are not delivered until ResumeLink.
// Only supported on FIFO networks (the asynchronous model allows
// arbitrary finite delays, so pausing preserves protocol correctness
// while making adversarial schedules deterministic in tests and
// experiments). Quiesce blocks while paused messages are pending;
// Close resumes every paused link first.
func (nw *Network) PauseLink(from, to int) {
	if !nw.opts.FIFO {
		panic("netsim: PauseLink requires a FIFO network")
	}
	if from < 0 || from >= nw.n || to < 0 || to >= nw.n {
		panic(fmt.Sprintf("netsim: link %d→%d out of range", from, to))
	}
	if nw.vlat != nil {
		if nw.vlat.pause(from, to) {
			nw.pausedLinks.Add(1)
		}
		return
	}
	nw.mu.Lock()
	q := nw.pairQueueLocked(from, to)
	nw.mu.Unlock()
	q.mu.Lock()
	if !q.paused {
		q.paused = true
		nw.pausedLinks.Add(1)
	}
	q.mu.Unlock()
}

// ResumeLink releases a link paused by PauseLink; held messages are
// delivered in order.
func (nw *Network) ResumeLink(from, to int) {
	if !nw.opts.FIFO {
		panic("netsim: ResumeLink requires a FIFO network")
	}
	if from < 0 || from >= nw.n || to < 0 || to >= nw.n {
		panic(fmt.Sprintf("netsim: link %d→%d out of range", from, to))
	}
	if nw.vlat != nil {
		if nw.vlat.resume(from, to) {
			nw.pausedLinks.Add(-1)
		}
		return
	}
	nw.mu.Lock()
	q := nw.pairQueueLocked(from, to)
	nw.mu.Unlock()
	q.mu.Lock()
	if q.paused {
		q.paused = false
		nw.pausedLinks.Add(-1)
	}
	q.cond.Signal()
	q.mu.Unlock()
	// Released messages may satisfy pending deadlines' idle condition
	// only after they drain; the deliveries themselves re-advance the
	// clock, so nothing to do here.
}

// CutLink severs the ordered link from → to: messages sent on it are
// lost, not parked (FaultController).
func (nw *Network) CutLink(from, to int) {
	nw.faults.checkLink(from, to)
	nw.faults.cutLink(from, to)
}

// HealLink restores a link severed by CutLink (FaultController).
func (nw *Network) HealLink(from, to int) {
	nw.faults.checkLink(from, to)
	nw.faults.healLink(from, to)
}

// Crash takes a node off the network: messages from it, to it, and in
// flight toward it are lost (FaultController).
func (nw *Network) Crash(node int) {
	nw.faults.checkNode(node)
	nw.faults.crash(node)
}

// Restart reconnects a crashed node (FaultController).
func (nw *Network) Restart(node int) {
	nw.faults.checkNode(node)
	nw.faults.restart(node)
}

// PausedBacklog lists every paused link currently holding messages
// (BacklogInspector).
func (nw *Network) PausedBacklog() []PausedLink {
	if nw.pausedLinks.Load() == 0 {
		return nil
	}
	if nw.vlat != nil {
		return nw.vlat.pausedBacklog()
	}
	nw.mu.Lock()
	defer nw.mu.Unlock()
	var out []PausedLink
	for idx, q := range nw.queues {
		if q == nil {
			continue
		}
		q.mu.Lock()
		if q.paused && len(q.items) > 0 {
			out = append(out, PausedLink{From: idx / nw.n, To: idx % nw.n, Held: len(q.items)})
		}
		q.mu.Unlock()
	}
	return out
}

// Quiesce blocks until no message is in flight and no virtual-time
// callback is pending: every sent message has been delivered and its
// handler has returned, including messages sent by handlers and by
// clock callbacks, which Quiesce runs (advancing virtual time as far
// as needed). Application goroutines must be idle for the result to be
// a global cut.
func (nw *Network) Quiesce() {
	for {
		nw.mu.Lock()
		for nw.inflight != 0 {
			nw.quiet.Wait()
		}
		nw.mu.Unlock()
		nw.clk.advanceWait()
		nw.mu.Lock()
		done := nw.inflight == 0 && !nw.clk.pendingWork()
		nw.mu.Unlock()
		if done {
			return
		}
	}
}

// Close drains the network and stops the delivery goroutines. Messages
// already sent are still delivered; pending clock callbacks and pair
// hooks are cancelled first, then paused links are resumed. Send after
// Close panics.
func (nw *Network) Close() {
	nw.clk.drop()
	if nw.vlat != nil {
		// Virtual mode: deliveries are system timers that survived drop;
		// release paused pairs and drain everything through the clock.
		nw.vlat.resumeAll(&nw.pausedLinks)
		nw.Quiesce()
		nw.mu.Lock()
		if nw.closed {
			nw.mu.Unlock()
			return
		}
		nw.closed = true
		nw.mu.Unlock()
		// A send that passed the closed check before the flag flipped
		// has already incremented inflight (under nw.mu), so one more
		// drain delivers any such straggler before the pump stops.
		nw.Quiesce()
		// No queue goroutines exist in virtual mode (nw.wg is never
		// used); the pump is the only delivery goroutine and stopPump
		// joins it.
		nw.vlat.stopPump()
		return
	}
	nw.mu.Lock()
	queuesSnapshot := append([]*pairQueue(nil), nw.queues...)
	nw.mu.Unlock()
	for _, q := range queuesSnapshot {
		if q == nil {
			continue
		}
		q.mu.Lock()
		if q.paused {
			q.paused = false
			nw.pausedLinks.Add(-1)
			q.cond.Signal()
		}
		q.mu.Unlock()
	}
	nw.Quiesce()
	nw.mu.Lock()
	if nw.closed {
		nw.mu.Unlock()
		return
	}
	nw.closed = true
	queues := nw.queues
	nw.mu.Unlock()
	for _, q := range queues {
		if q == nil {
			continue
		}
		q.mu.Lock()
		q.closed = true
		q.cond.Signal()
		q.mu.Unlock()
	}
	nw.wg.Wait()
}
