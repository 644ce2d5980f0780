package mcs

import (
	"encoding/binary"
	"fmt"
	"sync"

	"partialdsm/internal/netsim"
)

// Outbox coalesces a node's outgoing updates per destination: instead
// of one netsim.Message per update per peer, up to `batch` staged
// records ride together in a single batched frame per destination. The
// paper's per-pair FIFO argument is preserved because a frame travels
// on the same ordered pair its records would have used individually and
// the receiver applies the records in frame order; only the
// message-per-write constant changes, not what any node learns or in
// what order (see README "Coalescing semantics").
//
// Frame layout: a big-endian uint32 record count followed by `count`
// protocol-specific records, exactly as staged.
//
// Usage (all calls under the owning node's mutex — the Outbox itself is
// not synchronized):
//
//	enc := out.Stage()            // reset the shared record encoder
//	enc.U32(...).I64(...)         // encode one record
//	out.AddTo(dst, name, ctrl, data) // append it to dst's frame
//
// A frame is flushed when it reaches the batch size, when the owning
// protocol reads (Outbox owners flush on Read so a polling peer
// eventually observes buffered writes), and when the cluster quiesces
// (mcs.Flusher). Payload buffers come from the process-wide pools; the
// receiving handler recycles them with RecycleFrame after decoding.
// Variable lists stay with the outbox: the transport reads Message.Vars
// only inside Send, so each destination's list is reused after a flush.
//
// Two engine-driven flush policies ride on top (SetFlushPolicy), both
// keyed to the transport's deterministic virtual clock so the flush
// schedule is reproducible across engines and machines:
//
//   - Timer: a frame staged into an empty outbox arms a virtual-time
//     deadline; when the clock reaches it (so many deliveries later, or
//     immediately once the network goes idle) every pending frame
//     flushes. This bounds how long a silent writer's tail can sit
//     buffered, making coalescing safe for poll-style workloads.
//   - Adaptive: each destination's frame flushes as soon as that
//     destination has no inbound traffic in flight — a busy receiver
//     lets records pile into one frame, an idle one gets them at once,
//     so latency-bound workloads keep the message reduction without a
//     round-trip stretch.
//
// Policy callbacks run on transport goroutines and take the owning
// node's mutex, so they serialize with the node's operations like any
// message handler.
type Outbox struct {
	net   netsim.Transport
	from  int
	kind  string
	batch int

	enc     Enc // staging encoder, reused for every record
	dests   []destFrame
	pending int    // records buffered across all destinations
	hold    bool   // batch bracket open: suppress every flush until Release
	epoch   uint64 // placement epoch stamped on outgoing frames (SetEpoch)

	// Engine-driven flush policies (nil/zero when disabled). fmu is the
	// owning node's mutex; every callback takes it before touching the
	// outbox.
	fmu       *sync.Mutex
	clk       netsim.Clock
	pm        netsim.PairMonitor
	ticks     uint64
	adaptive  bool
	armed     bool     // a timer deadline is outstanding
	staleArm  bool     // the outstanding deadline belongs to an already-flushed batch
	timerFn   func()   // pre-built timer callback (no per-arm closure)
	destFns   []func() // pre-built per-destination adaptive callbacks
	destArmed []bool   // an adaptive hook is outstanding per destination
}

// destFrame is one destination's frame under construction.
type destFrame struct {
	buf        []byte // nil while empty; starts with a 4-byte count slot
	count      int
	ctrl, data int
	vars       []string // kept, emptied, across flushes
}

// frameHeaderLen is the size of the record-count prefix; it is
// accounted as control bytes when the frame is flushed.
const frameHeaderLen = 4

// NewOutbox returns an outbox for node `from` sending messages of the
// given kind. batch < 2 disables coalescing: every AddTo flushes
// immediately, reproducing the one-message-per-update wire behaviour
// (in the batched frame format, with count 1).
func NewOutbox(net netsim.Transport, from int, kind string, batch int) *Outbox {
	if batch < 1 {
		batch = 1
	}
	return &Outbox{
		net:   net,
		from:  from,
		kind:  kind,
		batch: batch,
		dests: make([]destFrame, net.NumNodes()),
	}
}

// SetFlushPolicy enables the engine-driven flush modes: flushTicks > 0
// arms a virtual-time deadline whenever records are buffered, and
// adaptive flushes a destination's frame as soon as the destination
// has no inbound traffic pending. mu must be the mutex the owning node
// guards the outbox with; policy callbacks take it before flushing. A
// no-op when coalescing is off (batch < 2), when both policies are
// disabled, or when the transport has no clock (test fakes).
func (o *Outbox) SetFlushPolicy(mu *sync.Mutex, flushTicks int, adaptive bool) {
	if o.batch < 2 || (flushTicks <= 0 && !adaptive) {
		return
	}
	clk := o.net.Clock()
	if clk == nil {
		return
	}
	o.fmu = mu
	o.clk = clk
	if flushTicks > 0 {
		o.ticks = uint64(flushTicks)
		o.timerFn = func() {
			o.fmu.Lock()
			o.armed = false
			if o.staleArm {
				// The batch this deadline was armed for already flushed
				// (batch-full/read/quiesce). Records staged since then get
				// a fresh full window instead of a near-zero one.
				o.staleArm = false
				if o.pending > 0 {
					o.armed = true
					o.clk.After(o.ticks, o.timerFn)
				}
			} else if o.pending > 0 {
				o.Flush()
			}
			o.fmu.Unlock()
		}
	}
	if adaptive {
		o.adaptive = true
		o.pm, _ = o.net.(netsim.PairMonitor)
		o.destFns = make([]func(), len(o.dests))
		o.destArmed = make([]bool, len(o.dests))
		for dst := range o.destFns {
			dst := dst
			o.destFns[dst] = func() {
				o.fmu.Lock()
				o.destArmed[dst] = false
				o.flushDest(dst)
				o.fmu.Unlock()
			}
		}
	}
}

// SetEpoch sets the placement epoch stamped on every frame the outbox
// sends from now on. Called under the owning node's mutex, after the
// node's pre-flip records have been flushed — a frame carries the epoch
// its records were staged under. Static clusters never call it (epoch
// stays 0, the zero Message value).
func (o *Outbox) SetEpoch(e uint64) { o.epoch = e }

// Nudge gives the transport's clock an idle-advance opportunity.
// Protocol reads call it (outside the node mutex) when a flush policy
// is active, so a polling reader drives buffered writers' deadlines
// even when no message is in flight.
func (o *Outbox) Nudge() {
	if o.clk != nil {
		o.clk.AdvanceIdle()
	}
}

// Stage resets and returns the record encoder. The staged bytes stay
// valid until the next Stage call, so one record can be appended to any
// number of destinations without re-encoding (the multicast fast path).
func (o *Outbox) Stage() *Enc {
	o.enc.Reset()
	return &o.enc
}

// Emit sends the staged record to every destination. When coalescing
// is off (batch ≤ 1) the whole multicast shares one pooled {frame,
// refcount} pair, returned by the last receiver (RecycleFrame) — one
// pool operation on each side of the multicast; with coalescing
// on, the record is appended to each destination's pooled frame
// (AddToVars), amortizing the buffer traffic over the batch. vars is
// the record's variable list; callers pass a shared static slice
// (sharegraph.Index.MsgVars) so the uncoalesced fast path allocates
// nothing in steady state.
func (o *Outbox) Emit(dests []int, vars []string, ctrl, data int) {
	if len(dests) == 0 {
		return
	}
	if o.batch > 1 || o.hold {
		for _, dst := range dests {
			o.AddToVars(dst, vars, ctrl, data)
		}
		return
	}
	rec := o.enc.Bytes()
	//lint:allow poolown dests is non-empty (guarded above), so every path reaches a Send adopting the pooled {buffer, refcount} pair
	buf, refs := GetSharedPayload(len(dests))
	buf = append(buf, 0, 0, 0, 1) // count = 1
	buf = append(buf, rec...)
	for _, dst := range dests {
		o.net.Send(netsim.Message{
			From:          o.from,
			To:            dst,
			Kind:          o.kind,
			Payload:       buf,
			CtrlBytes:     ctrl + frameHeaderLen,
			DataBytes:     data,
			Vars:          vars,
			Epoch:         o.epoch,
			SharedPayload: true,
			SharedRefs:    refs,
		})
	}
}

// AddTo appends the staged record to dst's pending frame, carrying
// information about the single variable x with the given control/data
// byte split. The frame is flushed when it reaches the batch size.
func (o *Outbox) AddTo(dst int, x string, ctrl, data int) {
	d := o.appendStaged(dst, ctrl, data)
	d.addVar(x)
	if d.count >= o.batch {
		o.flushDest(dst)
	}
}

// AddToVars is AddTo for records mentioning several variables (the
// causal dependency lists). names may contain duplicates; the frame's
// variable list is deduplicated.
func (o *Outbox) AddToVars(dst int, names []string, ctrl, data int) {
	d := o.appendStaged(dst, ctrl, data)
	for _, x := range names {
		d.addVar(x)
	}
	if d.count >= o.batch {
		o.flushDest(dst)
	}
}

// appendStaged copies the staged record into dst's frame.
func (o *Outbox) appendStaged(dst int, ctrl, data int) *destFrame {
	if dst < 0 || dst >= len(o.dests) {
		panic(fmt.Sprintf("mcs: outbox destination %d out of range [0,%d)", dst, len(o.dests)))
	}
	d := &o.dests[dst]
	if d.buf == nil {
		d.buf = GetPayload()
		d.buf = append(d.buf, 0, 0, 0, 0) // count slot
		if o.adaptive && !o.destArmed[dst] {
			// Adaptive: flush this frame once dst has no inbound traffic.
			// The pair monitor fires the hook on dst's drain transition,
			// or at the next clock advance if dst is already quiet. At
			// most one hook per destination is outstanding; a hook that
			// outlives its frame (another path flushed first) covers the
			// next frame instead.
			o.destArmed[dst] = true
			if o.pm != nil {
				o.pm.OnInboundIdle(dst, o.destFns[dst])
			} else {
				o.clk.Schedule(o.clk.Now(), o.destFns[dst])
			}
		}
	}
	if o.ticks > 0 && !o.armed {
		o.armed = true
		o.clk.After(o.ticks, o.timerFn)
	}
	d.buf = append(d.buf, o.enc.Bytes()...)
	d.count++
	d.ctrl += ctrl
	d.data += data
	o.pending++
	return d
}

// addVar records x in the frame's deduplicated variable list.
func (d *destFrame) addVar(x string) {
	for _, v := range d.vars {
		if v == x {
			return
		}
	}
	d.vars = append(d.vars, x)
}

// HasPending reports whether any record is buffered. Protocols check it
// on Read so an empty outbox costs one branch.
func (o *Outbox) HasPending() bool { return o.pending > 0 }

// Flush sends every destination's pending frame.
func (o *Outbox) Flush() {
	if o.pending == 0 {
		return
	}
	for dst := range o.dests {
		o.flushDest(dst)
	}
}

// Hold opens a batch bracket: every flush trigger (batch-full, read,
// timer, adaptive hook, quiesce) is suppressed until Release, so all
// records staged inside the bracket leave as one frame per
// destination. Called under the owning node's mutex.
func (o *Outbox) Hold() { o.hold = true }

// Release closes the batch bracket and flushes everything buffered.
// Called under the owning node's mutex.
func (o *Outbox) Release() {
	o.hold = false
	o.Flush()
}

// flushDest seals and sends dst's frame: the record count is patched
// into the header and the payload is handed off to the transport (the
// receiving handler recycles it).
func (o *Outbox) flushDest(dst int) {
	d := &o.dests[dst]
	if d.count == 0 || o.hold {
		return
	}
	binary.BigEndian.PutUint32(d.buf[:frameHeaderLen], uint32(d.count))
	o.net.Send(netsim.Message{
		From:      o.from,
		To:        dst,
		Kind:      o.kind,
		Payload:   d.buf,
		CtrlBytes: d.ctrl + frameHeaderLen,
		DataBytes: d.data,
		Vars:      d.vars,
		Epoch:     o.epoch,
	})
	o.pending -= d.count
	if o.pending == 0 && o.armed {
		o.staleArm = true // the outstanding deadline no longer covers live records
	}
	*d = destFrame{vars: d.vars[:0]}
}

// Flusher is implemented by protocol nodes that buffer outgoing updates
// in an Outbox. The cluster facade flushes every node before waiting
// for network quiescence, so Quiesce remains the global cut it was
// without coalescing.
type Flusher interface {
	// FlushUpdates sends all buffered updates. Safe to call from any
	// goroutine; the node synchronizes internally.
	FlushUpdates()
}
