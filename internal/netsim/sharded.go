package netsim

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Sharded is the batched delivery engine. Instead of the classic
// Network's goroutine per ordered node pair — one wakeup and two
// global-lock round trips per message — it shards traffic into
// per-pair mailboxes drained by a fixed pool of workers. A mailbox
// with pending messages is scheduled once on the shared run queue; the
// worker that picks it up drains the whole backlog in one pass,
// fetching the destination handler once and settling the in-flight
// count once per batch, so a burst of k messages on a pair costs one
// wakeup instead of k. Per-pair FIFO order is preserved because a
// mailbox is only ever drained by one worker at a time, and the run
// queue is work-conserving: any idle worker can pick up any pair, so
// no pair waits behind a busy worker while another sits idle. The hot
// send path is lock-free except for the destination mailbox's own
// mutex: in-flight accounting is an atomic counter and the handler
// table is copy-on-write.
//
// In non-FIFO mode messages bypass the mailboxes and flow through the
// run queue individually, so concurrent workers may reorder them,
// matching the classic engine's contract.
//
// Simulated latency in the real-sleep mode (Options.MaxLatency without
// VirtualLatency) is slept in-line by the delivering worker, so with
// more concurrently active pairs than workers the delays serialize
// onto the pool instead of overlapping as they do with the classic
// engine's goroutine per pair. That keeps the semantics valid (the
// asynchronous model allows arbitrary finite delays) but makes the
// classic engine the better choice for real-sleep latency studies; the
// sharded engine targets throughput, where MaxLatency is zero. With
// Options.VirtualLatency both engines route every delivery through the
// shared virtual-time schedule (vlat.go) — the mailboxes and worker
// pool sit idle and the engines become trace-identical.
//
// Sharded implements Transport and LinkController; its semantics are
// checked against the classic engine by the conformance suite.
type Sharded struct {
	n       int
	opts    Options
	workers int

	clk         *vclock
	pairs       *pairWatch
	vlat        *vnet          // non-nil in virtual-latency mode; owns the delivery schedule
	faults      *faultInjector // always non-nil; cheap no-op without configured faults
	pausedLinks atomic.Int32   // links currently held by PauseLink

	handlers atomic.Value // []Handler, copy-on-write
	hmu      sync.Mutex   // serializes SetHandler stores
	closed   atomic.Bool
	inflight atomic.Int64
	qmu      sync.Mutex // guards quiet waiters
	quiet    *sync.Cond

	latMu sync.Mutex // guards rng; taken only when MaxLatency > 0
	rng   *rand.Rand //lint:allow seededrand real-latency jitter only (guarded by latMu); virtual mode draws via PairDraw

	bmu   sync.Mutex // serializes lazy mailbox creation
	boxes []atomic.Pointer[mailbox]
	run   runQueue
	wg    sync.WaitGroup
}

// runQueue is the workers' shared input: a FIFO of scheduled mailboxes
// (FIFO mode) and a FIFO of loose messages (non-FIFO mode).
type runQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	ready  ring[*mailbox]
	loose  ring[looseMsg]
	closed bool
}

// looseMsg is a non-FIFO message with the latency drawn for it.
type looseMsg struct {
	msg     Message
	latency time.Duration
}

// ring is a FIFO in a power-of-two circular buffer: once the buffer has
// reached the queue's high-water mark, push and pop allocate nothing.
type ring[T any] struct {
	buf     []T
	head, n int
}

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		grown := make([]T, max(8, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

func (r *ring[T]) pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero // drop the reference
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// mailbox holds one ordered pair's undelivered messages. scheduled is
// true while the mailbox sits in the run queue or is being drained,
// guaranteeing single-consumer FIFO.
type mailbox struct {
	to int

	mu        sync.Mutex
	items     []Message
	latencies []time.Duration // nil when MaxLatency == 0
	spare     []Message       // drained backing array, recycled for the next batch
	spareLat  []time.Duration
	scheduled bool
	paused    atomic.Bool
}

// NewSharded returns a sharded transport over n nodes. Options.Workers
// sets the pool size (0 = max(2, GOMAXPROCS)).
func NewSharded(n int, opts Options) *Sharded {
	if n <= 0 {
		panic(fmt.Sprintf("netsim: network needs at least one node, got %d", n))
	}
	if err := opts.validate(n); err != nil {
		panic("netsim: " + err.Error())
	}
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
		if w < 2 {
			w = 2
		}
	}
	nw := &Sharded{
		n:       n,
		opts:    opts,
		workers: w,
		rng:     rand.New(rand.NewSource(opts.Seed)),
		pairs:   newPairWatch(n),
		faults:  newFaultInjector(n, opts),
	}
	stalled := nw.idle
	if opts.VirtualLatency {
		nw.vlat = newVNet(n, opts)
		stalled = func() bool { return nw.inflight.Load() == nw.vlat.parkedCount() }
	}
	nw.clk = newVClock(nw.idle, stalled, func() bool { return nw.pausedLinks.Load() > 0 }, nw.pairs)
	nw.handlers.Store(make([]Handler, n))
	nw.quiet = sync.NewCond(&nw.qmu)
	nw.run.cond = sync.NewCond(&nw.run.mu)
	if nw.vlat != nil {
		// Virtual mode: every delivery runs on the clock's serialized
		// timeline; the mailboxes and worker pool would sit idle, so
		// they are not started at all.
		nw.vlat.clk = nw.clk
		nw.vlat.deliver = nw.deliverVirtual
		nw.vlat.start()
		return nw
	}
	if opts.FIFO {
		nw.boxes = make([]atomic.Pointer[mailbox], n*n)
	}
	nw.wg.Add(w)
	for i := 0; i < w; i++ {
		go nw.serve()
	}
	return nw
}

// deliverVirtual is the virtual-latency delivery hook: handler
// dispatch plus the per-message clock tick and in-flight settling,
// invoked from serialized clock callbacks. Fault-dropped messages skip
// only the handler call.
func (nw *Sharded) deliverVirtual(msg Message) {
	if nw.faults.deliverable(&msg) {
		h := nw.handlers.Load().([]Handler)[msg.To]
		if h != nil {
			h(msg)
		}
	}
	if nw.pairs.delivered(msg.To) {
		nw.clk.requestPairHooks()
	}
	nw.clk.tick()
	nw.settle(1)
}

// NumNodes returns the number of nodes.
func (nw *Sharded) NumNodes() int { return nw.n }

// NumWorkers returns the delivery pool size.
func (nw *Sharded) NumWorkers() int { return nw.workers }

// Clock returns the transport's virtual-time clock.
func (nw *Sharded) Clock() Clock { return nw.clk }

// InboundIdle reports whether no message is in flight to `to`
// (PairMonitor).
func (nw *Sharded) InboundIdle(to int) bool { return nw.pairs.InboundIdle(to) }

// OnInboundIdle registers a one-shot hook for when inbound traffic to
// `to` next drains (PairMonitor).
func (nw *Sharded) OnInboundIdle(to int, fn func()) { nw.pairs.OnInboundIdle(to, fn) }

// SetHandler installs the delivery handler for a node. The table is
// copy-on-write so the delivery workers read it without locking.
func (nw *Sharded) SetHandler(node int, h Handler) {
	if node < 0 || node >= nw.n {
		panic(fmt.Sprintf("netsim: node %d out of range [0,%d)", node, nw.n))
	}
	nw.hmu.Lock()
	defer nw.hmu.Unlock()
	old := nw.handlers.Load().([]Handler)
	next := make([]Handler, nw.n)
	copy(next, old)
	next[node] = h
	nw.handlers.Store(next)
}

// Send enqueues a message for asynchronous delivery. It never blocks
// on the receiver; sending to an unknown node or on a closed transport
// panics.
func (nw *Sharded) Send(msg Message) {
	if dup := nw.faults.inject(&msg); dup != nil {
		nw.send1(msg)
		nw.send1(*dup)
		return
	}
	nw.send1(msg)
}

// send1 enqueues one (possibly fault-marked) message.
func (nw *Sharded) send1(msg Message) {
	if msg.To < 0 || msg.To >= nw.n || msg.From < 0 || msg.From >= nw.n {
		panic(fmt.Sprintf("netsim: message endpoints %d→%d out of range", msg.From, msg.To))
	}
	if nw.closed.Load() {
		panic("netsim: send on closed network")
	}
	if nw.handlers.Load().([]Handler)[msg.To] == nil {
		panic(fmt.Sprintf("netsim: node %d has no handler installed", msg.To))
	}
	nw.inflight.Add(1)
	nw.pairs.sent(msg.To)
	var latency time.Duration
	if nw.vlat == nil && nw.opts.MaxLatency > 0 {
		nw.latMu.Lock()
		latency = drawRealLatency(nw.rng, nw.opts.MaxLatency)
		nw.latMu.Unlock()
	}
	if nw.opts.Metrics != nil {
		nw.opts.Metrics.RecordMessage(msg.Kind, msg.From, msg.To, msg.CtrlBytes, msg.DataBytes, msg.Vars)
	}
	if nw.vlat != nil {
		nw.vlat.send(msg)
		return
	}
	if !nw.opts.FIFO {
		// Loose delivery: messages go straight to the run queue, where
		// concurrent workers may pick up and reorder them.
		nw.run.mu.Lock()
		nw.run.loose.push(looseMsg{msg, latency})
		nw.run.cond.Signal()
		nw.run.mu.Unlock()
		return
	}
	mb := nw.mailbox(msg.From, msg.To)
	mb.mu.Lock()
	mb.items = append(mb.items, msg)
	if nw.opts.MaxLatency > 0 {
		mb.latencies = append(mb.latencies, latency)
	}
	wake := !mb.scheduled && !mb.paused.Load()
	if wake {
		mb.scheduled = true
	}
	mb.mu.Unlock()
	if wake {
		nw.enqueue(mb)
	}
}

// idle reports whether no message can still make progress — the
// clock's idleness probe. Messages held in paused mailboxes do not
// count (a paused link is an arbitrarily slow channel; virtual time
// keeps advancing around it). The mailbox walk runs only when traffic
// is in flight while a clock deadline is pending.
func (nw *Sharded) idle() bool {
	in := nw.inflight.Load()
	if in == 0 {
		return true
	}
	if nw.vlat != nil {
		return in == nw.vlat.pending() && nw.inflight.Load() == in
	}
	if nw.pausedLinks.Load() == 0 || nw.boxes == nil {
		return false
	}
	var held int64
	for i := range nw.boxes {
		mb := nw.boxes[i].Load()
		if mb == nil || !mb.paused.Load() {
			continue
		}
		mb.mu.Lock()
		held += int64(len(mb.items))
		mb.mu.Unlock()
	}
	return held == in && nw.inflight.Load() == in
}

// PausedBacklog lists every paused link currently holding messages
// (BacklogInspector).
func (nw *Sharded) PausedBacklog() []PausedLink {
	if nw.pausedLinks.Load() == 0 {
		return nil
	}
	if nw.vlat != nil {
		return nw.vlat.pausedBacklog()
	}
	if nw.boxes == nil {
		return nil
	}
	var out []PausedLink
	for i := range nw.boxes {
		mb := nw.boxes[i].Load()
		if mb == nil || !mb.paused.Load() {
			continue
		}
		mb.mu.Lock()
		held := len(mb.items)
		mb.mu.Unlock()
		if held > 0 {
			out = append(out, PausedLink{From: i / nw.n, To: i % nw.n, Held: held})
		}
	}
	return out
}

// mailbox returns the pair's mailbox, creating it on first use.
func (nw *Sharded) mailbox(from, to int) *mailbox {
	idx := from*nw.n + to
	if mb := nw.boxes[idx].Load(); mb != nil {
		return mb
	}
	nw.bmu.Lock()
	defer nw.bmu.Unlock()
	if mb := nw.boxes[idx].Load(); mb != nil {
		return mb
	}
	mb := &mailbox{to: to}
	nw.boxes[idx].Store(mb)
	return mb
}

// enqueue schedules a mailbox on the shared run queue.
func (nw *Sharded) enqueue(mb *mailbox) {
	nw.run.mu.Lock()
	nw.run.ready.push(mb)
	nw.run.cond.Signal()
	nw.run.mu.Unlock()
}

// serve is one worker's loop: pop a loose message or a scheduled
// mailbox and process it.
func (nw *Sharded) serve() {
	defer nw.wg.Done()
	q := &nw.run
	for {
		q.mu.Lock()
		for q.ready.n == 0 && q.loose.n == 0 && !q.closed {
			q.cond.Wait()
		}
		if q.loose.n > 0 {
			l := q.loose.pop()
			msg, latency := l.msg, l.latency
			q.mu.Unlock()
			if latency > 0 {
				time.Sleep(latency) //lint:allow realtime real-latency engine: loose-order delivery sleeps wall-clock by design
			}
			if nw.faults.deliverable(&msg) {
				h := nw.handlers.Load().([]Handler)[msg.To]
				if h != nil {
					h(msg)
				}
			}
			if nw.pairs.delivered(msg.To) {
				nw.clk.requestPairHooks()
			}
			nw.clk.tick()
			nw.settle(1)
			continue
		}
		if q.ready.n == 0 && q.closed {
			q.mu.Unlock()
			return
		}
		mb := q.ready.pop()
		q.mu.Unlock()
		nw.drain(mb)
	}
}

// drain delivers one batch from the mailbox: the entire backlog is
// claimed under one lock acquisition, the destination handler is
// fetched once, and the in-flight count settles once at the end. If
// more messages arrived meanwhile the mailbox re-enters the run queue
// behind other pairs (fairness); if the pair was paused mid-batch the
// undelivered tail is pushed back in order.
func (nw *Sharded) drain(mb *mailbox) {
	mb.mu.Lock()
	if mb.paused.Load() || len(mb.items) == 0 {
		mb.scheduled = false
		mb.mu.Unlock()
		return
	}
	batch := mb.items
	lats := mb.latencies
	mb.items = mb.spare[:0]
	if mb.spareLat != nil {
		mb.latencies = mb.spareLat[:0]
	} else {
		mb.latencies = nil
	}
	mb.spare, mb.spareLat = nil, nil
	mb.mu.Unlock()

	h := nw.handlers.Load().([]Handler)[mb.to]
	delivered := 0
	for i := range batch {
		if mb.paused.Load() {
			// Push the undelivered tail back to the front, keeping order.
			mb.mu.Lock()
			mb.items = append(append([]Message{}, batch[i:]...), mb.items...)
			if lats != nil {
				mb.latencies = append(append([]time.Duration{}, lats[i:]...), mb.latencies...)
			}
			// Re-check the pause under the lock: ResumeLink may have
			// completed since the lockless load above, in which case it
			// saw an empty mailbox and did not reschedule — the pushed-
			// back tail would be stranded. Keep the scheduled claim and
			// requeue ourselves instead.
			if mb.paused.Load() {
				mb.scheduled = false
				mb.mu.Unlock()
			} else {
				mb.mu.Unlock()
				nw.enqueue(mb)
			}
			nw.settle(delivered)
			return
		}
		if lats != nil && lats[i] > 0 {
			time.Sleep(lats[i]) //lint:allow realtime real-latency engine: mailbox drain sleeps wall-clock by design
		}
		if h != nil && nw.faults.deliverable(&batch[i]) {
			h(batch[i])
		}
		if nw.pairs.delivered(mb.to) {
			nw.clk.requestPairHooks()
		}
		nw.clk.tick()
		delivered++
	}
	nw.settle(delivered)

	mb.mu.Lock()
	// Hand the drained backing array back for the next batch.
	mb.spare, mb.spareLat = batch[:0], lats[:0]
	if len(mb.items) == 0 || mb.paused.Load() {
		mb.scheduled = false
		mb.mu.Unlock()
		return
	}
	mb.mu.Unlock()
	nw.enqueue(mb)
}

// settle retires k delivered messages from the in-flight count and
// wakes quiescence waiters on the transition to zero, which is also an
// idle-advance opportunity for the virtual clock.
func (nw *Sharded) settle(k int) {
	if k == 0 {
		return
	}
	if nw.inflight.Add(-int64(k)) == 0 {
		nw.qmu.Lock()
		nw.quiet.Broadcast()
		nw.qmu.Unlock()
		nw.clk.AdvanceIdle()
	}
}

// PauseLink holds back delivery on the ordered link from → to. Only
// supported in FIFO mode, like the classic engine.
func (nw *Sharded) PauseLink(from, to int) {
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
	if !nw.mailbox(from, to).paused.Swap(true) {
		nw.pausedLinks.Add(1)
	}
}

// ResumeLink releases a link paused by PauseLink; held messages are
// delivered in order.
func (nw *Sharded) ResumeLink(from, to int) {
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
	nw.resume(nw.mailbox(from, to))
}

// CutLink severs the ordered link from → to: messages sent on it are
// lost, not parked (FaultController).
func (nw *Sharded) CutLink(from, to int) {
	nw.faults.checkLink(from, to)
	nw.faults.cutLink(from, to)
}

// HealLink restores a link severed by CutLink (FaultController).
func (nw *Sharded) HealLink(from, to int) {
	nw.faults.checkLink(from, to)
	nw.faults.healLink(from, to)
}

// Crash takes a node off the network: messages from it, to it, and in
// flight toward it are lost (FaultController).
func (nw *Sharded) Crash(node int) {
	nw.faults.checkNode(node)
	nw.faults.crash(node)
}

// Restart reconnects a crashed node (FaultController).
func (nw *Sharded) Restart(node int) {
	nw.faults.checkNode(node)
	nw.faults.restart(node)
}

// resume clears a mailbox's pause flag and reschedules it if messages
// are waiting.
func (nw *Sharded) resume(mb *mailbox) {
	if mb.paused.Swap(false) {
		nw.pausedLinks.Add(-1)
	}
	mb.mu.Lock()
	wake := len(mb.items) > 0 && !mb.scheduled
	if wake {
		mb.scheduled = true
	}
	mb.mu.Unlock()
	if wake {
		nw.enqueue(mb)
	}
}

// Quiesce blocks until no message is in flight and no virtual-time
// callback is pending; pending callbacks are run (advancing virtual
// time as far as needed), including any sends they make.
func (nw *Sharded) Quiesce() {
	for {
		if nw.inflight.Load() != 0 {
			nw.qmu.Lock()
			for nw.inflight.Load() != 0 {
				nw.quiet.Wait()
			}
			nw.qmu.Unlock()
		}
		nw.clk.advanceWait()
		if nw.inflight.Load() == 0 && !nw.clk.pendingWork() {
			return
		}
	}
}

// Close drains the transport and stops the worker pool. Messages
// already sent are still delivered; pending clock callbacks and pair
// hooks are cancelled first, then paused links are resumed. Send after
// Close panics; Close is idempotent.
func (nw *Sharded) Close() {
	nw.clk.drop()
	if nw.vlat != nil {
		// Virtual mode: deliveries are system timers that survived drop;
		// release paused pairs and drain everything through the clock.
		nw.vlat.resumeAll(&nw.pausedLinks)
		nw.Quiesce()
		if !nw.closed.Swap(true) {
			// Drain once more after the flag flips: a send that raced
			// the closed check may have scheduled a delivery after the
			// first Quiesce, and the pump must still be alive to run it.
			nw.Quiesce()
			nw.vlat.stopPump()
		}
		return
	}
	for i := range nw.boxes {
		if mb := nw.boxes[i].Load(); mb != nil && mb.paused.Load() {
			nw.resume(mb)
		}
	}
	nw.Quiesce()
	if !nw.closed.Swap(true) {
		nw.run.mu.Lock()
		nw.run.closed = true
		nw.run.cond.Broadcast()
		nw.run.mu.Unlock()
	}
	nw.wg.Wait()
}
