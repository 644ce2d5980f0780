package netsim

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
)

// Reliable is an opt-in ack/retransmit layer over any Transport: the
// minimal machinery that restores the paper's reliable-FIFO channel
// assumption on top of a lossy, duplicating, or reordering network
// (Options.Faults, non-FIFO mode). Per ordered pair it adds
//
//   - sender-side sequence numbers: every data frame carries an 8-byte
//     header with its per-pair sequence;
//   - cumulative acks: the receiver answers every data frame with the
//     lowest sequence it has not yet delivered (kind "rel.ack", no
//     variable list, so the efficiency verdicts are unaffected);
//   - timeout-driven retransmission on the transport's virtual clock:
//     an unacked frame is resent every RetransmitTicks until acked or
//     MaxRetries is exhausted (then it is abandoned, bounding Quiesce);
//   - a receiver-side dedup/reorder window: duplicates are suppressed
//     and out-of-order frames buffered, so the application handler
//     sees each frame exactly once, in send order — FIFO is restored
//     even over a non-FIFO inner transport.
//
// Retransmit timers are virtual-clock callbacks, so with an inner
// transport in virtual-latency mode the whole recovery schedule is
// deterministic: same seed, same retransmissions, on either engine.
//
// Reliable forwards the optional interfaces (LinkController,
// PairMonitor, BacklogInspector, FaultController) to the inner
// transport. Metrics accounting happens in the inner transport and
// therefore counts every transmission — retransmits and acks are real
// messages crossing the simulated network.
type Reliable struct {
	inner Transport
	n     int
	rto   uint64
	retry int

	send []relSend
	recv []relRecv

	hmu      sync.Mutex
	handlers []Handler

	unacked        atomic.Int64 // frames awaiting ack, across all pairs (Quiesce gate)
	retransmits    atomic.Int64
	dupsSuppressed atomic.Int64
	acksSent       atomic.Int64
	abandoned      atomic.Int64

	onAbandon func(from, to int, attempts int)
}

// relAckKind is the wire kind of the layer's cumulative acks.
const relAckKind = "rel.ack"

// relHeader is the per-frame sequence header prepended to data
// payloads.
const relHeader = 8

// relSend is one ordered pair's sender state.
type relSend struct {
	mu      sync.Mutex
	next    uint64             // next sequence to assign
	pending map[uint64]Message // master copies awaiting ack
}

// relRecv is one ordered pair's receiver state. The mutex is held
// across application handler calls, so per-pair delivery is FIFO and
// exactly-once regardless of the inner transport's behaviour.
type relRecv struct {
	mu       sync.Mutex
	expected uint64             // next sequence to deliver
	buffered map[uint64]Message // out-of-order frames awaiting their gap
}

// ReliableOptions tune the retransmit layer.
type ReliableOptions struct {
	// RetransmitTicks is the virtual-clock timeout before an unacked
	// frame is resent. Virtual ticks advance one per delivery, so the
	// timeout must sit above the tick volume of a burst whose acks are
	// merely still in flight — too small an RTO storms the network with
	// spurious retransmissions. Zero picks 1<<20 ticks; when a loss
	// really occurred the deadline is reached cheaply via idle jumps,
	// so a generous RTO costs no wall time.
	RetransmitTicks uint64
	// MaxRetries bounds the retransmissions per frame; an unacked frame
	// is abandoned after them (counted in Stats.Abandoned), so Quiesce
	// terminates even against a fully partitioned link. Zero picks 16.
	MaxRetries int
	// OnAbandon, when set, is called once per abandoned frame with the
	// ordered pair and the number of transmissions attempted — the
	// layer's way of surfacing a permanent delivery failure to the
	// protocol above instead of only counting it. Called from a
	// virtual-clock callback with no layer locks held; it must not
	// block on network progress.
	OnAbandon func(from, to int, attempts int)
}

// NewReliable wraps inner with the ack/retransmit layer. Install
// application handlers through the wrapper's SetHandler (it claims the
// inner transport's handler slots) and send through the wrapper's Send;
// bypassing it for data traffic defeats the sequencing.
func NewReliable(inner Transport, opts ReliableOptions) *Reliable {
	rto := opts.RetransmitTicks
	if rto == 0 {
		rto = 1 << 20
	}
	retry := opts.MaxRetries
	if retry == 0 {
		retry = 16
	}
	n := inner.NumNodes()
	return &Reliable{
		inner:     inner,
		n:         n,
		rto:       rto,
		retry:     retry,
		send:      make([]relSend, n*n),
		recv:      make([]relRecv, n*n),
		handlers:  make([]Handler, n),
		onAbandon: opts.OnAbandon,
	}
}

// NumNodes returns the number of nodes.
func (r *Reliable) NumNodes() int { return r.inner.NumNodes() }

// Clock returns the inner transport's virtual-time clock.
func (r *Reliable) Clock() Clock { return r.inner.Clock() }

// SetHandler installs the application's delivery handler for a node.
func (r *Reliable) SetHandler(node int, h Handler) {
	r.hmu.Lock()
	r.handlers[node] = h
	r.hmu.Unlock()
	r.inner.SetHandler(node, func(msg Message) { r.dispatch(node, msg) })
}

func (r *Reliable) handler(node int) Handler {
	r.hmu.Lock()
	defer r.hmu.Unlock()
	return r.handlers[node]
}

// Send assigns the message its per-pair sequence, retains a master
// copy for retransmission, and transmits the first attempt. Each
// transmission sends a fresh copy of the payload — the receiver owns
// (and may recycle) what it is handed, never the master. The master
// also copies the variable list, which the sender may reuse as soon as
// Send returns and a retransmission is accounted long after that.
//
// The pair lock is held across the first transmission so sequence
// order equals wire order. Unlocking in between would let a competing
// Send on the pair transmit a later sequence first — normally healed
// by the reorder window, but if this goroutine then stalls in real
// time while virtual time races ahead (idle jumps cross retransmit
// deadlines at memory speed), the receiver's cumulative ack pins below
// the missing sequence and every later frame burns its whole retry
// budget against a gap only this goroutine can fill.
func (r *Reliable) Send(msg Message) {
	msg.dropped, msg.faultDrawn = false, false
	p := &r.send[msg.From*r.n+msg.To]
	p.mu.Lock()
	seq := p.next
	p.next++
	master := msg
	master.Payload = append([]byte(nil), msg.Payload...)
	master.Vars = append([]string(nil), msg.Vars...)
	master.SharedPayload = false
	master.SharedRefs = nil
	if p.pending == nil {
		p.pending = make(map[uint64]Message)
	}
	p.pending[seq] = master
	r.unacked.Add(1)
	// Arm before transmitting: if this goroutine stalls after the
	// registration, the due timer still retransmits (the receiver
	// dedupes the eventual double copy) instead of the frame having no
	// wire copy and no deadline at once.
	r.armTimer(msg.From, msg.To, seq, 0)
	r.transmit(master, seq)
	p.mu.Unlock()
}

// transmit sends one framed copy of a master message.
func (r *Reliable) transmit(master Message, seq uint64) {
	wire := master
	buf := make([]byte, relHeader+len(master.Payload))
	binary.BigEndian.PutUint64(buf, seq)
	copy(buf[relHeader:], master.Payload)
	wire.Payload = buf
	wire.CtrlBytes += relHeader
	r.inner.Send(wire)
}

// armTimer schedules the frame's retransmit deadline on the virtual
// clock. The callback reschedules only while the frame is unacked and
// retries remain, so Quiesce cannot diverge on it.
func (r *Reliable) armTimer(from, to int, seq uint64, attempt int) {
	r.inner.Clock().After(r.rto, func() { r.onTimeout(from, to, seq, attempt) })
}

// onTimeout retransmits an unacked frame or abandons it once the retry
// budget is spent.
func (r *Reliable) onTimeout(from, to int, seq uint64, attempt int) {
	p := &r.send[from*r.n+to]
	p.mu.Lock()
	master, ok := p.pending[seq]
	if ok && attempt >= r.retry {
		delete(p.pending, seq)
		p.mu.Unlock()
		r.unacked.Add(-1)
		r.abandoned.Add(1)
		if r.onAbandon != nil {
			r.onAbandon(from, to, attempt+1)
		}
		return
	}
	p.mu.Unlock()
	if !ok {
		return // acked in the meantime
	}
	r.retransmits.Add(1)
	r.armTimer(from, to, seq, attempt+1)
	r.transmit(master, seq)
}

// dispatch is the inner-transport handler: acks settle sender state,
// data frames go through the dedup/reorder window to the application
// handler.
func (r *Reliable) dispatch(node int, msg Message) {
	if msg.Kind == relAckKind {
		r.onAck(msg)
		return
	}
	seq := binary.BigEndian.Uint64(msg.Payload)
	app := msg
	app.Payload = msg.Payload[relHeader:]
	app.CtrlBytes -= relHeader
	app.SharedPayload = false
	app.SharedRefs = nil

	p := &r.recv[msg.From*r.n+msg.To]
	p.mu.Lock()
	switch {
	case seq < p.expected:
		// Duplicate (a retransmit that crossed its ack, or an injected
		// dup): suppress, but re-ack — the previous ack may have been
		// lost.
		p.mu.Unlock()
		r.dupsSuppressed.Add(1)
	case seq > p.expected:
		// A gap: hold the frame until retransmission fills it. The ack
		// below re-announces the gap's sequence.
		if p.buffered == nil {
			p.buffered = make(map[uint64]Message)
		}
		p.buffered[seq] = app
		p.mu.Unlock()
	default:
		// In order: deliver, then drain any buffered successors. The
		// pair lock is held across the handler calls, keeping per-pair
		// delivery FIFO and exactly-once.
		h := r.handler(node)
		for {
			if h != nil {
				h(app)
			}
			p.expected++
			next, ok := p.buffered[p.expected]
			if !ok {
				break
			}
			delete(p.buffered, p.expected)
			app = next
		}
		p.mu.Unlock()
	}
	r.sendAck(msg.To, msg.From)
}

// sendAck sends the receiver's cumulative ack for the ordered pair
// from → to: the next sequence it expects (everything below is
// delivered or buffered-behind-nothing). Carries no variable list, so
// the efficiency accounting of the wrapped protocol is unchanged.
func (r *Reliable) sendAck(node, peer int) {
	p := &r.recv[peer*r.n+node]
	p.mu.Lock()
	upTo := p.expected
	p.mu.Unlock()
	buf := make([]byte, relHeader)
	binary.BigEndian.PutUint64(buf, upTo)
	r.acksSent.Add(1)
	r.inner.Send(Message{
		From: node, To: peer, Kind: relAckKind,
		Payload: buf, CtrlBytes: relHeader,
	})
}

// onAck settles every pending frame the cumulative ack covers.
func (r *Reliable) onAck(msg Message) {
	upTo := binary.BigEndian.Uint64(msg.Payload)
	p := &r.send[msg.To*r.n+msg.From]
	p.mu.Lock()
	settled := 0
	for seq := range p.pending {
		if seq < upTo {
			delete(p.pending, seq)
			settled++
		}
	}
	p.mu.Unlock()
	if settled > 0 {
		r.unacked.Add(-int64(settled))
	}
}

// Quiesce drains the inner transport until every frame is acked or
// abandoned: each pass runs the pending retransmit timers (advancing
// virtual time as far as needed), so recovery completes without wall
// time passing.
func (r *Reliable) Quiesce() {
	for {
		r.inner.Quiesce()
		if r.unacked.Load() == 0 {
			return
		}
	}
}

// Close shuts the layer down: pending retransmit timers are protocol
// callbacks the inner Close cancels before draining.
func (r *Reliable) Close() { r.inner.Close() }

// ReliableStats counts the layer's recovery work.
type ReliableStats struct {
	// Retransmits counts frames resent after a timeout.
	Retransmits int64
	// DupsSuppressed counts received frames below the delivery window
	// (retransmit crossings and injected duplicates).
	DupsSuppressed int64
	// AcksSent counts cumulative acks sent.
	AcksSent int64
	// Abandoned counts frames dropped after MaxRetries (permanently
	// lost — e.g. sent into a partition that never healed).
	Abandoned int64
}

// Stats returns a snapshot of the layer's counters.
func (r *Reliable) Stats() ReliableStats {
	return ReliableStats{
		Retransmits:    r.retransmits.Load(),
		DupsSuppressed: r.dupsSuppressed.Load(),
		AcksSent:       r.acksSent.Load(),
		Abandoned:      r.abandoned.Load(),
	}
}

// PauseLink forwards to the inner transport (LinkController).
func (r *Reliable) PauseLink(from, to int) { r.innerLinks().PauseLink(from, to) }

// ResumeLink forwards to the inner transport (LinkController).
func (r *Reliable) ResumeLink(from, to int) { r.innerLinks().ResumeLink(from, to) }

func (r *Reliable) innerLinks() LinkController {
	lc, ok := r.inner.(LinkController)
	if !ok {
		panic(fmt.Sprintf("netsim: inner transport %T does not support link pausing", r.inner))
	}
	return lc
}

// PausedBacklog forwards to the inner transport (BacklogInspector).
func (r *Reliable) PausedBacklog() []PausedLink {
	bi, ok := r.inner.(BacklogInspector)
	if !ok {
		return nil
	}
	return bi.PausedBacklog()
}

// InboundIdle forwards to the inner transport (PairMonitor). Acks
// count as inbound traffic at this level; that only delays a hook, it
// never fires one early.
func (r *Reliable) InboundIdle(to int) bool { return r.innerPairs().InboundIdle(to) }

// OnInboundIdle forwards to the inner transport (PairMonitor).
func (r *Reliable) OnInboundIdle(to int, fn func()) { r.innerPairs().OnInboundIdle(to, fn) }

func (r *Reliable) innerPairs() PairMonitor {
	pm, ok := r.inner.(PairMonitor)
	if !ok {
		panic(fmt.Sprintf("netsim: inner transport %T does not support pair monitoring", r.inner))
	}
	return pm
}

// CutLink forwards to the inner transport (FaultController).
func (r *Reliable) CutLink(from, to int) { r.innerFaults().CutLink(from, to) }

// HealLink forwards to the inner transport (FaultController).
func (r *Reliable) HealLink(from, to int) { r.innerFaults().HealLink(from, to) }

// Crash forwards to the inner transport (FaultController).
func (r *Reliable) Crash(node int) { r.innerFaults().Crash(node) }

// Restart forwards to the inner transport (FaultController).
func (r *Reliable) Restart(node int) { r.innerFaults().Restart(node) }

func (r *Reliable) innerFaults() FaultController {
	fc, ok := r.inner.(FaultController)
	if !ok {
		panic(fmt.Sprintf("netsim: inner transport %T does not support fault injection", r.inner))
	}
	return fc
}
