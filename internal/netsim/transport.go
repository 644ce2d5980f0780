package netsim

import (
	"fmt"
	"sort"
	"sync"
)

// Transport is the message-delivery seam every protocol layer programs
// against: an asynchronous reliable message-passing system connecting a
// fixed set of nodes. Implementations differ in how delivery is
// scheduled (one goroutine per channel, a sharded worker pool, …) but
// must agree on the semantic contract below, which
// conformance_test.go checks for every registered implementation:
//
//   - Send never blocks on the receiver and delivers each message to
//     the destination handler exactly once.
//   - With Options.FIFO, delivery order on each ordered node pair is
//     the send order on that pair; without it, messages may be
//     reordered arbitrarily.
//   - Handlers may call Send (re-entrancy); messages sent from handlers
//     are delivered like any other.
//   - Quiesce returns only when every sent message — including messages
//     sent by handlers during the wait — has been delivered and its
//     handler has returned.
//   - Close drains all in-flight messages, then releases every delivery
//     worker; it is idempotent, and Send after Close panics.
//   - Options.Metrics, when non-nil, receives exactly one RecordMessage
//     per Send with the message's kind, endpoints, byte split and
//     variable list — synchronously, before Send returns. Nothing else
//     ever reads Message.Vars, so the list stays the sender's: it may
//     rewrite or reuse it once Send has returned, and a layer that
//     re-sends a message later (Reliable) sends its own copy. The
//     collector's steady state is lock-free (package metrics), so
//     this adds no serialization between senders.
//   - Payload ownership: a message's payload is immutable from Send
//     until the destination handler returns. The sender must not
//     mutate the slice after Send (it may pass the same slice to
//     several Sends — multicast); the transport must deliver exactly
//     the bytes it was given and must never read or write the slice
//     once the handler has returned, so a receiver that is the
//     payload's sole owner — including the last receiver of a
//     refcounted multicast (Message.SharedRefs) — may recycle the
//     buffer from inside its handler (see mcs.RecycleFrame). Retaining
//     a stale reference the transport never dereferences again is
//     permitted. The handler owns the payload only: Message.Vars is
//     dead on arrival (see above).
//   - Clock exposes the transport's deterministic virtual-time clock:
//     Now advances by one tick per delivered message and jumps to the
//     earliest pending deadline when the network goes idle; callbacks
//     registered with After/Schedule run exactly once, serialized, in
//     (deadline, registration) order. Quiesce runs every pending
//     callback before returning; Close cancels pending callbacks
//     before draining. See the package documentation in clock.go.
type Transport interface {
	// NumNodes returns the number of nodes the transport connects.
	NumNodes() int
	// SetHandler installs the delivery handler for a node. It must be
	// called before any message is sent to the node.
	SetHandler(node int, h Handler)
	// Send enqueues a message for asynchronous delivery.
	Send(msg Message)
	// Quiesce blocks until no message is in flight and no virtual-time
	// callback is pending (due callbacks are run during the wait).
	Quiesce()
	// Close cancels pending virtual-time callbacks, drains in-flight
	// messages, and shuts the transport down.
	Close()
	// Clock returns the transport's virtual-time clock.
	Clock() Clock
}

// LinkController is the optional link-level fault-injection interface.
// Both built-in transports support it on FIFO networks. Callers that
// need it must type-assert; invoking pause/resume against a transport
// that lacks it is a programming error of the same class as pausing a
// non-FIFO network, which the built-in engines answer with a panic —
// the cluster facade does the same.
type LinkController interface {
	// PauseLink holds back delivery on the ordered link from → to.
	PauseLink(from, to int)
	// ResumeLink releases a paused link; held messages are delivered in
	// order.
	ResumeLink(from, to int)
}

// PausedLink describes one paused ordered link together with the
// number of messages it is currently holding back.
type PausedLink struct {
	From, To int
	Held     int
}

// BacklogInspector is the optional introspection interface over paused
// links: PausedBacklog lists every paused link that currently holds
// undelivered messages. The cluster facade uses it to fail Quiesce
// fast instead of blocking forever on a backlog that cannot drain.
// Both built-in transports implement it.
type BacklogInspector interface {
	// PausedBacklog returns the paused links holding messages, in
	// (from, to) order. A paused link with an empty queue is not
	// reported — it cannot stall quiescence.
	PausedBacklog() []PausedLink
}

// Factory builds a transport over n nodes with the given options.
type Factory func(n int, opts Options) Transport

// Built-in transport kinds.
const (
	// KindClassic is the original engine: one delivery goroutine per
	// ordered node pair, one wakeup per message.
	KindClassic = "classic"
	// KindSharded is the batched engine: pair mailboxes are sharded
	// across a fixed worker pool and drained a batch at a time.
	KindSharded = "sharded"
)

var (
	registryMu sync.Mutex
	registry   = map[string]Factory{
		KindClassic: func(n int, opts Options) Transport { return NewNetwork(n, opts) },
		KindSharded: func(n int, opts Options) Transport { return NewSharded(n, opts) },
	}
)

// Register makes a transport constructor selectable by name through
// New. Registering a duplicate name panics; the conformance suite runs
// against every registered factory.
func Register(kind string, f Factory) {
	if kind == "" || f == nil {
		panic("netsim: Register needs a non-empty kind and a factory")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[kind]; dup {
		panic(fmt.Sprintf("netsim: transport %q already registered", kind))
	}
	registry[kind] = f
}

// New builds the named transport. The empty name selects KindClassic,
// keeping existing callers working unchanged. Invalid latency options
// — a negative MaxLatency, an unknown LatencyDist, a mis-shaped
// LatencyMatrix — are reported as errors here (the direct constructors
// panic on them, like on a non-positive node count).
func New(kind string, n int, opts Options) (Transport, error) {
	if err := opts.validate(n); err != nil {
		return nil, fmt.Errorf("netsim: %s", err)
	}
	if kind == "" {
		kind = KindClassic
	}
	registryMu.Lock()
	f := registry[kind]
	registryMu.Unlock()
	if f == nil {
		return nil, fmt.Errorf("netsim: unknown transport %q (have %v)", kind, Kinds())
	}
	return f(n, opts), nil
}

// Kinds returns the sorted names of all registered transports.
func Kinds() []string {
	registryMu.Lock()
	defer registryMu.Unlock()
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Compile-time checks: both built-in engines satisfy the full contract.
var (
	_ Transport        = (*Network)(nil)
	_ LinkController   = (*Network)(nil)
	_ PairMonitor      = (*Network)(nil)
	_ BacklogInspector = (*Network)(nil)
	_ FaultController  = (*Network)(nil)
	_ Transport        = (*Sharded)(nil)
	_ LinkController   = (*Sharded)(nil)
	_ PairMonitor      = (*Sharded)(nil)
	_ BacklogInspector = (*Sharded)(nil)
	_ FaultController  = (*Sharded)(nil)
	_ Transport        = (*Reliable)(nil)
	_ LinkController   = (*Reliable)(nil)
	_ PairMonitor      = (*Reliable)(nil)
	_ BacklogInspector = (*Reliable)(nil)
	_ FaultController  = (*Reliable)(nil)
)
