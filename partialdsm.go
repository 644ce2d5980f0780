// Package partialdsm is a distributed shared memory (DSM) toolkit
// reproducing Hélary & Milani, "About the efficiency of partial
// replication to implement Distributed Shared Memory" (IRISA PI-1727,
// ICPP 2006).
//
// It provides a cluster of simulated nodes, each pairing an application
// process with a memory consistency system (MCS) process, over a
// message-passing network. Shared variables may be partially
// replicated: each node holds only the variables its placement assigns
// (the paper's X_i sets). Eight consistency configurations are
// available, from atomic registers down to slow memory, including the
// paper's headline construction — an *efficient* PRAM memory under
// partial replication, in which information about a variable x never
// reaches a process outside its replica clique C(x) (Theorem 2) — and
// the causal configurations that provably cannot be efficient
// (Theorem 1).
//
// Clusters record their execution history; the toolkit can then verify
// protocol-specific consistency witnesses, run the exact checkers of
// the underlying model on small runs, and report the control-byte and
// variable-touch metrics that make the paper's efficiency notion
// measurable.
//
// # Transports
//
// The message-passing substrate is pluggable via Config.Transport.
// Every engine implements the same semantic contract — per-pair FIFO
// delivery (unless Config.NonFIFO), quiescence detection, exact-once
// delivery and metrics accounting — verified by the conformance suite
// in internal/netsim, so protocol behaviour and the paper's message
// counts are identical across engines; only scheduling and therefore
// throughput differ. TransportClassic (the default) runs one delivery
// goroutine per ordered node pair; TransportSharded drains per-pair
// mailboxes in batches on a fixed worker pool and is the better choice
// for message-heavy workloads.
//
// # Values and the v2 operation API
//
// Shared variables hold opaque byte-string values of any size: Put and
// Get move []byte payloads, PutAsync overlaps a blocking protocol's
// ordering round trip with the caller's next operations, and Batch
// applies a group of operations in one call, riding the
// per-destination coalescing outbox so a burst of writes to one
// replica clique leaves as one frame per destination. The original
// Write/Read int64 API remains as a thin shim — an int64 is exactly an
// 8-byte value — and produces byte-identical message traces to the
// pre-v2 wire format.
//
// # Control plane
//
// Beyond the data-plane operations, a Cluster exposes a control plane
// for experiments and operations: PauseLink/ResumeLink (deterministic
// asynchrony), CutLink/HealLink and CrashNode/RestartNode (hard
// faults), the bounded virtual-time Window helper with its CutLinkFor
// and CrashNodeFor instances, and epoch-based runtime reconfiguration
// — Reconfigure migrates the cluster to a new Placement without
// stopping it, and Failover re-places a crashed node's variables onto
// the survivors. Epoch and Placement report the current configuration;
// Holds, Clique, XRelevant and VarsOf are snapshots of it.
//
// # Quick start
//
//	cluster, err := partialdsm.New(partialdsm.Config{
//		Consistency: partialdsm.PRAM,
//		Placement: partialdsm.NewPlacement(3).
//			Assign(0, "x", "y").Assign(1, "x").Assign(2, "y"),
//	})
//	// node 0 writes, node 1 reads after the network settles
//	n0, n1 := cluster.Node(0), cluster.Node(1)
//	n0.Put("x", []byte("hello"))   // or n0.Write("x", 42)
//	cluster.Quiesce()
//	v, _ := n1.Get("x")            // or n1.Read("x")
//
//	// batch: one frame per destination for the whole burst
//	res, _ := n0.Apply(partialdsm.Batch{}.
//		Put("x", []byte("a")).Put("y", []byte("b")).Get("x"))
package partialdsm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"partialdsm/internal/check"
	"partialdsm/internal/mcs"
	"partialdsm/internal/mcs/atomicreg"
	"partialdsm/internal/mcs/cachepart"
	"partialdsm/internal/mcs/causalfull"
	"partialdsm/internal/mcs/causalpart"
	"partialdsm/internal/mcs/prampart"
	"partialdsm/internal/mcs/seqcons"
	"partialdsm/internal/mcs/slowpart"
	"partialdsm/internal/metrics"
	"partialdsm/internal/model"
	"partialdsm/internal/netsim"
	"partialdsm/internal/sharegraph"
	"partialdsm/internal/trace"
)

// Bottom is the initial value ⊥ of every shared variable seen through
// the legacy int64 API: Read of a never-written variable returns it.
const Bottom int64 = model.BottomInt64

// BottomValue returns ⊥ as Get observes it: the 8 big-endian bytes
// encoding Bottom.
func BottomValue() []byte { return model.Bottom.Bytes() }

// MaxValueLen bounds a single value's size in bytes.
const MaxValueLen = mcs.MaxValueLen

// Consistency selects a memory consistency protocol.
type Consistency string

// The available consistency configurations, strongest first.
const (
	// Atomic is a linearizable register per variable, served by a
	// per-variable primary; every operation pays a network round trip.
	Atomic Consistency = "atomic"
	// Sequential is sequencer-based sequential consistency with
	// blocking writes and local reads.
	Sequential Consistency = "sequential"
	// CausalFull is vector-clock causal broadcast with complete
	// replication (Ahamad et al.) — the paper's baseline.
	CausalFull Consistency = "causal-full"
	// CausalPartial is causal consistency with partial replication of
	// data and *broadcast* control notifications: correct, but
	// information about every variable reaches every node (Theorem 1's
	// unavoidable cost when the distribution is not known a priori).
	CausalPartial Consistency = "causal-partial"
	// CausalHoopAware is causal consistency with partial replication
	// where control notifications for x reach exactly the x-relevant
	// processes (C(x) plus x-hoop members), exploiting a statically
	// known share graph (§3.3's "ad-hoc" design).
	CausalHoopAware Consistency = "causal-hoop-aware"
	// PRAM is the paper's efficient construction (§5, Theorem 2):
	// per-sender FIFO updates multicast only to C(x).
	PRAM Consistency = "pram"
	// Slow is slow memory: per-(sender,variable) FIFO updates multicast
	// only to C(x); tolerates non-FIFO channels.
	Slow Consistency = "slow"
	// CacheConsistency is Goodman's cache consistency: per-variable
	// sequential consistency via a per-variable sequencer inside C(x).
	// Incomparable with PRAM, yet efficient in the paper's sense —
	// included as an exploration of the paper's §7 open question.
	CacheConsistency Consistency = "cache"
)

// Consistencies lists every supported configuration, strongest first.
var Consistencies = []Consistency{
	Atomic, Sequential, CausalFull, CausalPartial, CausalHoopAware, PRAM, Slow, CacheConsistency,
}

// Transport selects the message-delivery engine a cluster runs on.
// Every engine implements the same semantic contract (per-pair FIFO
// unless Config.NonFIFO, quiescence, exact-once delivery, metrics
// accounting), verified by the netsim conformance suite; they differ
// only in scheduling and therefore throughput.
type Transport string

// The available transports.
const (
	// TransportClassic runs one delivery goroutine per ordered node
	// pair: simple, and the reference for the conformance suite. The
	// zero value of Config.Transport selects it.
	TransportClassic Transport = Transport(netsim.KindClassic)
	// TransportSharded shards pair mailboxes across a fixed worker
	// pool and drains each pair's backlog in batches — one wakeup per
	// burst instead of per message. Prefer it for message-heavy
	// workloads.
	TransportSharded Transport = Transport(netsim.KindSharded)
)

// Transports lists every supported transport.
var Transports = []Transport{TransportClassic, TransportSharded}

// LatencyDist selects the delay distribution of the virtual-latency
// mode (Config.VirtualLatency); delays are derived deterministically
// from (Config.Seed, sender, receiver, per-link sequence number), so
// the same seed yields the same delay sequence on every transport.
type LatencyDist string

// The available virtual-latency distributions.
const (
	// LatencyUniform draws each delay uniformly from [0, MaxLatency] —
	// the virtual analogue of the real-sleep mode, and the default.
	LatencyUniform LatencyDist = LatencyDist(netsim.LatencyUniform)
	// LatencyFixed delays every message by exactly MaxLatency.
	LatencyFixed LatencyDist = LatencyDist(netsim.LatencyFixed)
	// LatencyHeavyTail draws from a bounded Pareto-like distribution:
	// most delays well under MaxLatency/4, stragglers up to 8×.
	LatencyHeavyTail LatencyDist = LatencyDist(netsim.LatencyHeavyTail)
	// LatencyMatrix bounds each ordered link's delay by the matching
	// Config.LatencyMatrix entry (uniform per link).
	LatencyMatrix LatencyDist = LatencyDist(netsim.LatencyMatrix)
)

// LatencyDists lists the virtual-latency distributions.
var LatencyDists = []LatencyDist{LatencyUniform, LatencyFixed, LatencyHeavyTail, LatencyMatrix}

// ParseLatencyDistFlag validates a latency-distribution name given on
// a command line and returns it; the empty string selects
// LatencyUniform. LatencyMatrix is rejected here: it needs a
// per-cluster Config.LatencyMatrix and cannot be selected by name
// alone. The cmd tools share this so they accept the same set.
func ParseLatencyDistFlag(s string) (LatencyDist, error) {
	if s == "" {
		return LatencyUniform, nil
	}
	if LatencyDist(s) == LatencyMatrix {
		return "", fmt.Errorf("distribution %q needs a per-link Config.LatencyMatrix and cannot be selected by name alone", s)
	}
	for _, k := range LatencyDists {
		if k == LatencyDist(s) {
			return k, nil
		}
	}
	return "", fmt.Errorf("unknown latency distribution %q (have %s, %s, %s)",
		s, LatencyUniform, LatencyFixed, LatencyHeavyTail)
}

// Config describes a cluster.
type Config struct {
	// Consistency selects the protocol. Required.
	Consistency Consistency
	// Placement assigns, per node, the variables the node replicates
	// and its application may access (the X_i sets) — the epoch-0
	// placement; Cluster.Reconfigure can install successors at
	// runtime. Build one with NewPlacement/Assign or
	// PlacementFromLists. Required unless PlacementLists is set.
	Placement *Placement
	// PlacementLists is the raw pre-v8 form of Placement: one variable
	// list per node.
	//
	// Deprecated: use Placement. Setting both is an error.
	PlacementLists [][]string
	// MaxLatency bounds the simulated per-message delivery latency
	// (uniform in [0, MaxLatency] by default). Without VirtualLatency
	// each delivery really sleeps; with it the bound scales the
	// virtual-time delay distribution instead. Zero delivers as fast as
	// scheduling allows; negative values are rejected.
	MaxLatency time.Duration
	// VirtualLatency simulates MaxLatency in deterministic virtual time
	// instead of real sleeps: every message draws a delivery deadline
	// on the transport clock from a seeded distribution (LatencyDist),
	// deliveries run serialized on one totally ordered virtual
	// timeline, and the Seed fully determines the message trace on
	// every transport. Latency studies become reproducible and cost no
	// wall time — Quiesce and Close drain a 50ms-latency cluster in
	// microseconds. See README "Latency simulation".
	VirtualLatency bool
	// LatencyDist selects the virtual-mode delay distribution:
	// LatencyUniform (the default), LatencyFixed, LatencyHeavyTail or
	// LatencyMatrix. Requires VirtualLatency.
	LatencyDist LatencyDist
	// LatencyMatrix gives per-ordered-link maximum delays for the
	// LatencyMatrix distribution; must be NumNodes×NumNodes (zero
	// entries deliver with zero delay), with MaxLatency left zero.
	LatencyMatrix [][]time.Duration
	// Seed makes the latency sequence reproducible.
	Seed int64
	// NonFIFO delivers messages independently instead of FIFO per node
	// pair. Only Slow, CausalPartial, CausalHoopAware, Sequential and
	// Atomic tolerate it; PRAM and CausalFull require FIFO and reject
	// the combination.
	NonFIFO bool
	// Transport selects the delivery engine (TransportClassic,
	// TransportSharded, or any kind registered with netsim.Register).
	// Empty selects TransportClassic.
	Transport Transport
	// TransportWorkers bounds the sharded transport's worker pool.
	// Zero picks max(2, GOMAXPROCS); the classic transport ignores it.
	TransportWorkers int
	// CoalesceBatch enables per-destination update coalescing for the
	// wait-free protocols (PRAM, Slow, CausalFull, CausalPartial,
	// CausalHoopAware): up to CoalesceBatch updates per destination
	// ride in one batched network message, flushed when the batch
	// fills, when the writing node next reads, and on Quiesce. 0 or 1
	// sends every update immediately (the default). Coalescing changes
	// only the message-per-write constant, never what any node learns
	// or in what order — per-pair FIFO and each protocol's consistency
	// argument are preserved (see README "Coalescing semantics").
	// Blocking protocols (Sequential, Atomic, CacheConsistency) ignore
	// it.
	//
	// Liveness caveat (plain batching only): a buffered update
	// propagates only when its *writer* next operates (or the cluster
	// quiesces). A workload that polls for a value whose writer has
	// gone permanently silent would wait forever; set
	// CoalesceFlushTicks or CoalesceAdaptive — which make the *engine*
	// flush buffered tails — and any workload is live.
	CoalesceBatch int
	// CoalesceFlushTicks > 0 flushes buffered updates on a virtual-time
	// deadline: a record staged into an empty outbox is sent at most
	// that many clock ticks later. The transport clock ticks once per
	// delivered message and jumps to the earliest pending deadline when
	// the network goes idle, so the schedule is deterministic rather
	// than wall-clock-driven: a phase-structured driver (each burst
	// synchronized before the next) gets byte-identical message traces
	// for the same seed on every transport, and a silent writer's tail
	// never strands (poll-style workloads run coalesced safely).
	// Implies coalescing: if CoalesceBatch < 2 it defaults to 16.
	CoalesceFlushTicks int
	// CoalesceAdaptive flushes a destination's buffered frame as soon
	// as that destination has no inbound traffic in flight: a busy
	// receiver lets updates pile into one frame, an idle one gets them
	// immediately. Latency-bound workloads (Bellman-Ford) keep the
	// message reduction without the round-trip stretch of pure
	// batching. May be combined with CoalesceFlushTicks; implies
	// coalescing like it.
	CoalesceAdaptive bool
	// FaultDrop is the per-message probability, in [0, 1], that the
	// network loses a message in transit — seeded fault injection
	// (netsim.FaultConfig). The loss schedule is a pure function of
	// (FaultSeed, sender, receiver, per-link sequence), so a given
	// workload sees the identical fault pattern on every transport and
	// every run. Dropped messages still flow through delivery
	// accounting, so Quiesce completes on a lossy network.
	FaultDrop float64
	// FaultDup is the per-message probability, in [0, 1], that the
	// network delivers a message twice (the duplicate immediately
	// follows the original on the same link).
	FaultDup float64
	// FaultSeed seeds the fault draws, independently of Seed (the
	// latency seed), so loss and delay patterns vary separately.
	FaultSeed int64
	// Reliable wraps the transport in an ack/retransmit layer
	// (netsim.Reliable) that restores exactly-once FIFO delivery on
	// top of the injected faults: per-pair sequence numbers, cumulative
	// acks, timeout-driven retransmission on the virtual clock, and a
	// receiver-side dedup/reorder window. The protocols then run their
	// reliable-channel assumptions unchanged; Stats reports the
	// recovery work.
	Reliable bool
	// RetransmitTicks is the Reliable layer's retransmit timeout in
	// virtual clock ticks (one tick per delivered message); zero picks
	// the netsim default. Too small a value retransmits frames whose
	// acks are merely still in flight.
	RetransmitTicks int
	// RetransmitMax bounds the Reliable layer's retransmissions per
	// frame before it abandons the frame (keeping Quiesce terminating
	// across permanent partitions); zero picks the netsim default.
	RetransmitMax int
	// OpDeadlineTicks bounds the blocking protocols' round-trip waits
	// (Sequential, Atomic, CacheConsistency) on the virtual clock: an
	// operation that sees no progress within that many ticks fails fast
	// with an error wrapping ErrOpDeadline — and records it as the
	// node's fault, visible through Err() — instead of hanging forever
	// on an unrecovered lossy or partitioned link. Zero (the default)
	// waits unboundedly, the pre-v7 behaviour. The deadline rides the
	// same deterministic clock as the latency and fault schedules, so a
	// given seed either always or never expires a given operation.
	OpDeadlineTicks int
	// DisableTrace turns off history and witness recording (for
	// benchmarks). Traced verification methods then return ErrNoTrace.
	DisableTrace bool
	// LiveVerify attaches an online consistency monitor that validates
	// every event as it happens (O(1) per event); the first violation
	// is available from LiveError. Supported for PRAM, Slow,
	// CacheConsistency and Sequential (criteria with prefix-closed
	// witnesses); other configurations reject the flag. Implies
	// tracing.
	LiveVerify bool
}

// ErrNoTrace is returned by history-dependent methods when the cluster
// was built with DisableTrace.
var ErrNoTrace = errors.New("partialdsm: cluster was built with DisableTrace")

// ErrOpDeadline is the sentinel wrapped by operations that gave up
// after Config.OpDeadlineTicks of virtual time without progress; test
// with errors.Is.
var ErrOpDeadline = mcs.ErrOpDeadline

// Cluster is a running DSM instance.
type Cluster struct {
	cfg     Config
	pl      *sharegraph.Placement // epoch-0 placement (the universe never changes)
	net     netsim.Transport
	rel     *netsim.Reliable // non-nil when Config.Reliable
	col     *metrics.Collector
	rec     *mcs.Recorder
	nodes   []mcs.Node
	faults  *faultSink
	monitor check.Monitor // nil unless LiveVerify

	// Control-plane state (reconfigure.go), guarded by cmu.
	cmu           sync.Mutex
	ix            *sharegraph.Index     // current epoch's index
	cpl           *sharegraph.Placement // current epoch's placement
	epoch         uint64                // committed epoch
	attempt       uint64                // highest reconfiguration attempt number burned
	reconfiguring bool
	crashed       []bool
	recoverWant   []int // completed recovery handshakes expected per node
	// Efficiency ledger: per variable, every node that was in C(x) /
	// x-relevant under any epoch attempted so far. Nil until the first
	// reconfiguration attempt; VerifyEfficiency and
	// VerifyRelevanceBound fall back to the epoch-0 sets.
	cliqueUnion map[string]map[int]bool
	relUnion    map[string]map[int]bool
	// ownerHist records every committed epoch's index in ascending
	// epoch order (epoch 0 first). The atomic witness resolves each
	// event's owner from the largest committed epoch at or below the
	// event's stamp.
	ownerHist []*sharegraph.Index

	// Access counters for the placement policy loop (policy.go): dense
	// per-(node, variable) operation counts indexed node*numVars+vid
	// through accessVar, bumped atomically on every NodeHandle
	// operation (uint32 cells: a policy window cannot meaningfully
	// exceed 4 billion accesses per cell, and the halved footprint
	// keeps construction cheap on wide placements).
	// prevReads/prevWrites mark the last policy window's high-water
	// marks — allocated lazily at the first window, guarded by cmu.
	accessVar               map[string]int
	readCounts, writeCounts []uint32
	prevReads, prevWrites   []uint32
}

// faultSink collects the first protocol-level fault each node reports
// (mcs.Config.OnFault): a malformed or misrouted frame the protocol
// dropped instead of processing. On a reliable network these indicate a
// bug; under fault injection they are the expected symptom of a
// protocol whose wire format is not duplication- or loss-safe.
type faultSink struct {
	mu  sync.Mutex
	err error
}

func (s *faultSink) record(node int, err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = fmt.Errorf("partialdsm: node %d dropped a frame: %w", node, err)
	}
	s.mu.Unlock()
}

func (s *faultSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// New builds and starts a cluster.
func New(cfg Config) (*Cluster, error) {
	pub, err := cfg.placement()
	if err != nil {
		return nil, err
	}
	pl, err := pub.build()
	if err != nil {
		return nil, err
	}
	numNodes := pl.NumProcs()
	if cfg.NonFIFO && (cfg.Consistency == PRAM || cfg.Consistency == CausalFull) {
		return nil, fmt.Errorf("partialdsm: %s requires FIFO channels", cfg.Consistency)
	}

	var faults *netsim.FaultConfig
	if cfg.FaultDrop != 0 || cfg.FaultDup != 0 || cfg.FaultSeed != 0 {
		faults = &netsim.FaultConfig{Drop: cfg.FaultDrop, Dup: cfg.FaultDup, Seed: cfg.FaultSeed}
	}
	col := metrics.NewCollector()
	col.Reserve(numNodes, pl.Vars()) // sorted, i.e. in VarID order
	net, err := netsim.New(string(cfg.Transport), numNodes, netsim.Options{
		FIFO:           !cfg.NonFIFO,
		MaxLatency:     cfg.MaxLatency,
		VirtualLatency: cfg.VirtualLatency,
		LatencyDist:    netsim.LatencyDist(cfg.LatencyDist),
		LatencyMatrix:  cfg.LatencyMatrix,
		Seed:           cfg.Seed,
		Faults:         faults,
		Metrics:        col,
		Workers:        cfg.TransportWorkers,
	})
	if err != nil {
		return nil, fmt.Errorf("partialdsm: %w", err)
	}
	sink := &faultSink{}
	var trans netsim.Transport = net
	var rel *netsim.Reliable
	if cfg.Reliable {
		if cfg.RetransmitTicks < 0 || cfg.RetransmitMax < 0 {
			net.Close()
			return nil, errors.New("partialdsm: RetransmitTicks and RetransmitMax must be non-negative")
		}
		rel = netsim.NewReliable(net, netsim.ReliableOptions{
			RetransmitTicks: uint64(cfg.RetransmitTicks),
			MaxRetries:      cfg.RetransmitMax,
			// A frame the layer gives up on is a permanent delivery
			// failure the sender can no longer mask; surface it as the
			// sending node's fault instead of only counting it.
			OnAbandon: func(from, to, attempts int) {
				sink.record(from, fmt.Errorf("netsim: peer %d unreachable, frame abandoned after %d transmissions", to, attempts))
			},
		})
		trans = rel
	}
	var rec *mcs.Recorder
	if !cfg.DisableTrace || cfg.LiveVerify {
		rec = mcs.NewRecorder(numNodes)
	}
	var monitor check.Monitor
	if cfg.LiveVerify {
		switch cfg.Consistency {
		case PRAM, Sequential:
			monitor = check.NewPRAMMonitor(numNodes)
		case Slow:
			monitor = check.NewSlowMonitor(numNodes)
		case CacheConsistency:
			monitor = check.NewCacheMonitor(numNodes)
		default:
			trans.Close()
			return nil, fmt.Errorf("partialdsm: LiveVerify is not supported for %s (its witness is not prefix-closed)", cfg.Consistency)
		}
		rec.SetObserver(func(node int, e check.Event) { _ = monitor.Feed(node, e) })
	}
	batch := cfg.CoalesceBatch
	if (cfg.CoalesceFlushTicks > 0 || cfg.CoalesceAdaptive) && batch < 2 {
		batch = 16 // engine-driven flushing implies coalescing
	}
	mc := mcs.Config{
		Net: trans, Placement: pl, Metrics: col, Recorder: rec,
		NonFIFO:            cfg.NonFIFO,
		CoalesceBatch:      batch,
		CoalesceFlushTicks: cfg.CoalesceFlushTicks,
		CoalesceAdaptive:   cfg.CoalesceAdaptive,
		OpDeadlineTicks:    cfg.OpDeadlineTicks,
		OnFault:            sink.record,
	}

	var nodes []mcs.Node
	switch cfg.Consistency {
	case PRAM:
		nodes, err = wrap(prampart.New(mc))
	case CausalFull:
		nodes, err = wrap(causalfull.New(mc))
	case CausalPartial:
		nodes, err = wrap(causalpart.New(mc, causalpart.ModeBroadcast))
	case CausalHoopAware:
		nodes, err = wrap(causalpart.New(mc, causalpart.ModeHoopAware))
	case Sequential:
		nodes, err = wrap(seqcons.New(mc))
	case Atomic:
		nodes, err = wrap(atomicreg.New(mc))
	case Slow:
		nodes, err = wrap(slowpart.New(mc))
	case CacheConsistency:
		nodes, err = wrap(cachepart.New(mc))
	default:
		err = fmt.Errorf("partialdsm: unknown consistency %q", cfg.Consistency)
	}
	if err != nil {
		trans.Close()
		return nil, err
	}
	c := &Cluster{cfg: cfg, pl: pl, net: trans, rel: rel, col: col, rec: rec, nodes: nodes, faults: sink, monitor: monitor}
	c.ix = pl.Index()
	c.cpl = pl
	c.ownerHist = []*sharegraph.Index{c.ix}
	c.crashed = make([]bool, numNodes)
	c.recoverWant = make([]int, numNodes)
	c.initAccessCounters()
	return c, nil
}

// Err returns the first protocol-level fault any node has reported: a
// malformed, misrouted or otherwise unprocessable frame the protocol
// dropped instead of applying. Nil means every delivered frame was
// processed. On a fault-free network a non-nil Err indicates a protocol
// bug; with fault injection (Config.FaultDrop/FaultDup) it is how a
// protocol whose wire format is not loss- or duplication-safe announces
// itself. Quiesce also fails fast with this error.
func (c *Cluster) Err() error { return c.faults.Err() }

// LiveError returns the first violation found by the live monitor
// (Config.LiveVerify), nil while the execution is consistent, and
// ErrNoTrace when live verification was not enabled.
func (c *Cluster) LiveError() error {
	if c.monitor == nil {
		return ErrNoTrace
	}
	return c.monitor.Err()
}

// wrap converts a typed node slice into the interface slice.
func wrap[T mcs.Node](nodes []T, err error) ([]mcs.Node, error) {
	if err != nil {
		return nil, err
	}
	out := make([]mcs.Node, len(nodes))
	for i, n := range nodes {
		out[i] = n
	}
	return out, nil
}

// NumNodes returns the number of nodes.
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// Node returns a handle bound to node i. Each handle must be driven by
// a single application goroutine, matching the paper's model of one
// sequential application process per node.
func (c *Cluster) Node(i int) *NodeHandle {
	if i < 0 || i >= len(c.nodes) {
		panic(fmt.Sprintf("partialdsm: node %d out of range [0,%d)", i, len(c.nodes)))
	}
	return &NodeHandle{c: c, id: i, node: c.nodes[i]}
}

// Holds reports whether node i replicates variable x under the
// current epoch's placement — a snapshot: Reconfigure may change it.
func (c *Cluster) Holds(i int, x string) bool {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	return c.cpl.Holds(i, x)
}

// Clique returns C(x), the nodes replicating x under the current
// epoch's placement — a snapshot: Reconfigure may change it.
func (c *Cluster) Clique(x string) []int {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	return append([]int(nil), c.cpl.Clique(x)...)
}

// XRelevant returns the x-relevant nodes per Theorem 1, under the
// current epoch's placement — a snapshot: Reconfigure may change it.
func (c *Cluster) XRelevant(x string) []int {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	return c.cpl.XRelevant(x)
}

// Vars returns the sorted variable universe. Unlike the placement,
// the universe is fixed for the cluster's lifetime — Reconfigure may
// move replicas but never add or drop variables.
func (c *Cluster) Vars() []string {
	return append([]string(nil), c.pl.Vars()...)
}

// VarsOf returns the sorted variables node i replicates (X_i) under
// the current epoch's placement — a snapshot: Reconfigure may change
// it.
func (c *Cluster) VarsOf(i int) []string {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	return c.cpl.VarsOf(i)
}

// Quiesce blocks until no message is in flight. With idle application
// goroutines this is a consistent global cut: all issued updates have
// been delivered everywhere they were addressed. Updates still
// coalesced in node outboxes (Config.CoalesceBatch) are flushed first,
// so the cut covers every issued write.
//
// Quiescing while a paused link (PauseLink) holds undelivered messages
// can never complete — the backlog cannot drain. Instead of hanging,
// Quiesce detects that state and returns a descriptive error without
// waiting; ResumeLink the named links and quiesce again. The check is
// a snapshot: a message that reaches a paused link only after Quiesce
// has begun waiting still blocks it, as before.
func (c *Cluster) Quiesce() error {
	if err := c.faults.Err(); err != nil {
		return err
	}
	for _, n := range c.nodes {
		if f, ok := n.(mcs.Flusher); ok {
			f.FlushUpdates()
		}
	}
	if bi, ok := c.net.(netsim.BacklogInspector); ok {
		if held := bi.PausedBacklog(); len(held) > 0 {
			total := 0
			for _, l := range held {
				total += l.Held
			}
			return fmt.Errorf("partialdsm: Quiesce cannot complete: %d messages held on %d paused links (first: link %d→%d holding %d); ResumeLink before quiescing",
				total, len(held), held[0].From, held[0].To, held[0].Held)
		}
	}
	c.net.Quiesce()
	return c.faults.Err()
}

// PauseLink suspends delivery on the ordered link from → to (messages
// queue, nothing is lost) — deterministic asynchrony injection for
// tests and experiments. Requires a FIFO network (the default) and a
// transport implementing netsim.LinkController (both built-in ones
// do). Quiesce while a paused link holds messages fails fast with a
// descriptive error instead of hanging.
func (c *Cluster) PauseLink(from, to int) { c.linkController().PauseLink(from, to) }

// ResumeLink releases a link paused by PauseLink; held messages are
// delivered in order.
func (c *Cluster) ResumeLink(from, to int) { c.linkController().ResumeLink(from, to) }

// linkController returns the transport's fault-injection interface.
func (c *Cluster) linkController() netsim.LinkController {
	lc, ok := c.net.(netsim.LinkController)
	if !ok {
		panic(fmt.Sprintf("partialdsm: transport %T does not support link pausing", c.net))
	}
	return lc
}

// CutLink hard-partitions the ordered link from → to: unlike PauseLink,
// messages sent while the link is cut are *lost*, not parked, so
// Quiesce completes normally and the protocols see genuine message
// loss. With Config.Reliable the retransmit layer masks a cut that
// heals before Config.RetransmitMax timeouts elapse.
func (c *Cluster) CutLink(from, to int) { c.faultController().CutLink(from, to) }

// HealLink restores a link cut by CutLink. Messages lost while it was
// cut stay lost (no replay).
func (c *Cluster) HealLink(from, to int) { c.faultController().HealLink(from, to) }

// CutLinkFor cuts the ordered link from → to and heals it after
// exactly `ticks` virtual ticks — a Window instance; see Window for
// why the bounded-virtual-time form is the fault-injection idiom
// seeded, engine-comparable experiments should use.
func (c *Cluster) CutLinkFor(from, to int, ticks uint64) {
	fc := c.faultController()
	c.Window(ticks,
		func() { fc.CutLink(from, to) },
		func() { fc.HealLink(from, to) })
}

// CrashNodeFor fail-stops node i at the next virtual-time advance and
// restarts it — volatile state wiped, recovery handshake started, like
// RestartNode — after exactly `ticks` virtual ticks. A Window
// instance: a crash window driven from an application goroutine has
// no defined virtual length, one scheduled on the clock does. Quiesce
// fires both callbacks (and the recovery they trigger) before
// returning.
func (c *Cluster) CrashNodeFor(i int, ticks uint64) error {
	if err := c.crashRestarter(i); err != nil {
		return err
	}
	fc := c.faultController()
	cr := c.nodes[i].(mcs.CrashRestarter)
	c.Window(ticks,
		func() {
			c.setCrashed(i, true)
			fc.Crash(i)
		},
		func() {
			cr.CrashRestart()
			c.installCurrentEpoch(i)
			fc.Restart(i)
			c.noteRecoverStart(i)
			cr.Recover()
		})
	return nil
}

// CrashNode fail-stops node i: messages to and from it — including any
// already in flight — are lost until RestartNode. All eight protocols
// support the crash/restart/recover cycle; the error return is kept
// for protocols registered out of tree that do not implement
// mcs.CrashRestarter (the node is then left running).
func (c *Cluster) CrashNode(i int) error {
	if err := c.crashRestarter(i); err != nil {
		return err
	}
	c.setCrashed(i, true)
	c.faultController().Crash(i)
	return nil
}

// RestartNode restarts a crashed node i with its volatile state wiped
// back to ⊥ (crash amnesia) while its durable write counters survive,
// reconnects it to the network, and starts the recovery handshake: the
// node fetches per-variable values and protocol metadata (sequence
// cursors, vector clocks, duplicate-suppression state) from its live
// peers over the normal transport, so pre-crash writes become readable
// again instead of every replica resting at ⊥. Recovery traffic is
// ordinary messages — it coalesces, draws latency, and is subject to
// the fault schedule like any other frame; snapshot requests retry a
// bounded number of times, and a node whose peers stay unreachable
// reports the failure through Err(). Stats separates the recovery
// traffic and counts completed rejoins. Values no surviving peer knew
// remain ⊥ (recorded as a recovery reset, which the witness checkers
// account for).
func (c *Cluster) RestartNode(i int) error {
	if err := c.crashRestarter(i); err != nil {
		return err
	}
	// Wipe before reconnecting: while the node is crashed no frame can
	// reach it, so the wipe cannot race a delivery. Epochs that
	// committed while the node was down (Failover) are installed next,
	// so recovery re-seeds its state under the current placement.
	cr := c.nodes[i].(mcs.CrashRestarter)
	cr.CrashRestart()
	c.installCurrentEpoch(i)
	c.faultController().Restart(i)
	c.noteRecoverStart(i)
	cr.Recover()
	return nil
}

// crashRestarter validates that node i supports the crash/restart
// cycle.
func (c *Cluster) crashRestarter(i int) error {
	if i < 0 || i >= len(c.nodes) {
		return fmt.Errorf("partialdsm: node %d out of range [0,%d)", i, len(c.nodes))
	}
	if _, ok := c.nodes[i].(mcs.CrashRestarter); !ok {
		return fmt.Errorf("partialdsm: %s does not support crash/restart (node state cannot rejoin)", c.cfg.Consistency)
	}
	return nil
}

// faultController returns the transport's hard-fault interface
// (partitions and crashes).
func (c *Cluster) faultController() netsim.FaultController {
	fc, ok := c.net.(netsim.FaultController)
	if !ok {
		panic(fmt.Sprintf("partialdsm: transport %T does not support fault injection", c.net))
	}
	return fc
}

// Close shuts the cluster down. The cluster must not be used afterward.
func (c *Cluster) Close() { c.net.Close() }

// NodeHandle exposes the operations of one application process. A
// handle (like the node itself) must be driven by a single application
// goroutine, matching the paper's model of one sequential application
// process per node.
type NodeHandle struct {
	c       *Cluster
	id      int
	node    mcs.Node
	scratch [8]byte // per-handle buffer for the int64 shim, no per-op alloc
}

// ID returns the node identifier.
func (h *NodeHandle) ID() int { return h.node.ID() }

// Put performs w_i(x)v with an opaque byte-string value (at most
// MaxValueLen bytes). The value is fully consumed before Put returns;
// the caller may reuse v. Wait-free protocols return after the local
// apply; ordering protocols block until the write is ordered.
func (h *NodeHandle) Put(x string, v []byte) error {
	h.c.countAccess(h.id, x, true)
	if len(v) > MaxValueLen {
		return fmt.Errorf("partialdsm: value for %s is %d bytes, max %d", x, len(v), MaxValueLen)
	}
	return h.node.Put(x, v)
}

// PutAsync performs w_i(x)v without blocking on the protocol's
// ordering round trip: the update is staged/sent (per that protocol's
// semantics) before PutAsync returns, and the returned Pending
// completes when a synchronous Put would have returned. For the
// wait-free protocols (PRAM, Slow, the causal family) completion is
// immediate; for the blocking protocols (Sequential, Atomic,
// CacheConsistency) Pending.Wait blocks until the write's ack. Any
// number of writes may be outstanding; they complete in issue order
// per destination. An operation issued before Wait returns is not
// ordered after the pending write. The blocking protocols' pipelining
// relies on per-pair FIFO order: on a Config.NonFIFO network their
// PutAsync degrades to the synchronous Put.
func (h *NodeHandle) PutAsync(x string, v []byte) (Pending, error) {
	h.c.countAccess(h.id, x, true)
	if len(v) > MaxValueLen {
		return nil, fmt.Errorf("partialdsm: value for %s is %d bytes, max %d", x, len(v), MaxValueLen)
	}
	return h.node.PutAsync(x, v)
}

// Get performs r_i(x) and returns the value as a fresh slice. Reads of
// never-written variables return BottomValue().
func (h *NodeHandle) Get(x string) ([]byte, error) {
	h.c.countAccess(h.id, x, false)
	return h.node.Get(x, nil)
}

// GetInto performs r_i(x), appending the value to dst[:0] and
// returning the result — the allocation-free read path: with enough
// capacity in dst, a wait-free protocol's GetInto is 0 allocs/op.
func (h *NodeHandle) GetInto(x string, dst []byte) ([]byte, error) {
	h.c.countAccess(h.id, x, false)
	return h.node.Get(x, dst)
}

// Write performs w_i(x)v through the legacy int64 API: a thin shim
// over Put with the 8-byte big-endian encoding of v, byte-identical on
// the wire to the pre-v2 format.
func (h *NodeHandle) Write(x string, v int64) error {
	h.c.countAccess(h.id, x, true)
	binary.BigEndian.PutUint64(h.scratch[:], uint64(v))
	return h.node.Put(x, h.scratch[:])
}

// Read performs r_i(x) through the legacy int64 API. Reads of
// never-written variables return Bottom; reading a variable whose
// current value is not 8 bytes is an error (use Get).
func (h *NodeHandle) Read(x string) (int64, error) {
	h.c.countAccess(h.id, x, false)
	v, err := h.node.Get(x, h.scratch[:0])
	if err != nil {
		return 0, err
	}
	if len(v) != 8 {
		return 0, fmt.Errorf("partialdsm: value of %s is %d bytes, not an int64 word; use Get", x, len(v))
	}
	return int64(binary.BigEndian.Uint64(v)), nil
}

// Pending is the completion handle of an asynchronous write
// (PutAsync). Wait blocks until the write has completed per the
// protocol's semantics and may be called from any goroutine, once or
// many times.
type Pending interface {
	Wait() error
}

// Batch is an immutable builder of a group of operations applied in
// one Apply call. The zero value is an empty batch; Put and Get return
// extended copies, so batches compose like slices:
//
//	res, err := h.Apply(partialdsm.Batch{}.
//		Put("x", []byte("a")).
//		Put("y", []byte("b")).
//		Get("x"))
//
// On the wait-free protocols a batch rides the per-destination
// coalescing outbox: every update staged by the batch leaves as one
// frame per destination when Apply returns — k writes to one clique
// are one message per member, not k — regardless of the cluster's
// coalescing configuration. On the blocking protocols the writes are
// pipelined with PutAsync and settled before any Get and at the end of
// the batch. A batch is a convenience and a batching hint, not a
// transaction: operations apply in order with exactly the cluster's
// consistency semantics, and an error leaves earlier operations
// applied.
type Batch struct {
	ops []batchOp
}

// batchOp is one operation of a Batch.
type batchOp struct {
	get bool
	x   string
	v   []byte
}

// Put appends w(x)v to the batch. The value slice is retained until
// Apply; do not mutate it in between.
func (b Batch) Put(x string, v []byte) Batch {
	b.ops = append(b.ops[:len(b.ops):len(b.ops)], batchOp{x: x, v: v})
	return b
}

// PutInt64 appends w(x)v through the legacy int64 representation.
func (b Batch) PutInt64(x string, v int64) Batch {
	buf := make([]byte, 8)
	binary.BigEndian.PutUint64(buf, uint64(v))
	return b.Put(x, buf)
}

// Get appends r(x) to the batch; its value lands in the BatchResult,
// in Get order.
func (b Batch) Get(x string) Batch {
	b.ops = append(b.ops[:len(b.ops):len(b.ops)], batchOp{get: true, x: x})
	return b
}

// Len returns the number of operations in the batch.
func (b Batch) Len() int { return len(b.ops) }

// BatchResult holds the values read by a batch's Gets.
type BatchResult struct {
	vals [][]byte
}

// Len returns the number of completed Gets.
func (r *BatchResult) Len() int { return len(r.vals) }

// Bytes returns the value of the i-th Get of the batch.
func (r *BatchResult) Bytes(i int) []byte { return r.vals[i] }

// Int64 returns the i-th Get's value through the legacy int64
// representation.
func (r *BatchResult) Int64(i int) (int64, error) {
	v := r.vals[i]
	if len(v) != 8 {
		return 0, fmt.Errorf("partialdsm: batch value %d is %d bytes, not an int64 word", i, len(v))
	}
	return int64(binary.BigEndian.Uint64(v)), nil
}

// Apply executes the batch on this node. Operations run in batch
// order; the returned BatchResult collects the Gets' values. On error
// the batch stops, already-issued operations stay applied, and every
// staged update is still flushed.
func (h *NodeHandle) Apply(b Batch) (*BatchResult, error) {
	for _, op := range b.ops {
		h.c.countAccess(h.id, op.x, !op.get)
		if !op.get && len(op.v) > MaxValueLen {
			return nil, fmt.Errorf("partialdsm: value for %s is %d bytes, max %d", op.x, len(op.v), MaxValueLen)
		}
	}
	res := &BatchResult{}
	if bt, ok := h.node.(mcs.Batcher); ok {
		// Wait-free protocol: hold the outbox open across the batch so
		// everything staged leaves as one frame per destination.
		bt.BeginBatch()
		defer bt.EndBatch()
		for _, op := range b.ops {
			if op.get {
				v, err := h.node.Get(op.x, nil)
				if err != nil {
					return res, err
				}
				res.vals = append(res.vals, v)
			} else if err := h.node.Put(op.x, op.v); err != nil {
				return res, err
			}
		}
		return res, nil
	}
	// Blocking protocol: pipeline the writes, settle them before any
	// read (preserving read-your-writes in batch order) and at the end.
	var outstanding []mcs.Pending
	settle := func() error {
		for _, p := range outstanding {
			if err := p.Wait(); err != nil {
				return err
			}
		}
		outstanding = outstanding[:0]
		return nil
	}
	for _, op := range b.ops {
		if op.get {
			if err := settle(); err != nil {
				return res, err
			}
			v, err := h.node.Get(op.x, nil)
			if err != nil {
				return res, err
			}
			res.vals = append(res.vals, v)
		} else {
			p, err := h.node.PutAsync(op.x, op.v)
			if err != nil {
				return res, err
			}
			outstanding = append(outstanding, p)
		}
	}
	return res, settle()
}

// Stats is a snapshot of the cluster's communication metrics.
type Stats struct {
	// Msgs counts network messages sent.
	Msgs int64
	// CtrlBytes and DataBytes split the wire volume into control
	// information and variable data.
	CtrlBytes, DataBytes int64
	// MsgsByKind counts messages per protocol message kind.
	MsgsByKind map[string]int64
	// Touch maps node → the sorted variables the node has sent or
	// received information about.
	Touch map[int][]string
	// DelaySamples counts messages whose virtual delivery delay was
	// recorded (Config.VirtualLatency; zero otherwise). The paper's
	// delay/efficiency trade-off becomes measurable through the
	// summary below: one virtual tick is one nanosecond of configured
	// latency. Each sample is the message's drawn delay — a pure
	// function of (Seed, sender, receiver, per-link sequence), so the
	// histogram of a given workload is identical across runs and
	// transports.
	DelaySamples int64
	// DelayMean, DelayP99 and DelayMax summarize the per-message
	// virtual delivery-delay histogram (P99 is an upper-bound estimate
	// from log₂ buckets).
	DelayMean, DelayP99, DelayMax time.Duration
	// Faults counts injected network faults by kind ("drop", "dup",
	// "partition", "crash"); nil when no fault fired.
	Faults map[string]int64
	// Retransmits, DupsSuppressed, AcksSent and Abandoned report the
	// recovery work of the ack/retransmit layer (Config.Reliable; zero
	// otherwise). Abandoned counts frames given up on after
	// Config.RetransmitMax retries — nonzero only across unhealed
	// partitions or crashes.
	Retransmits, DupsSuppressed, AcksSent, Abandoned int64
	// Recoveries counts completed crash-recovery handshakes
	// (RestartNode cycles whose snapshot merge finished), RecoveryMsgs
	// the snapshot requests and responses that crossed the wire for
	// them, and RecoveryTicks the summed virtual time from each
	// Recover() to its rejoin completing — the protocol-level cost of
	// crash recovery, separated from steady-state traffic.
	Recoveries    int
	RecoveryMsgs  int64
	RecoveryTicks uint64
	// ReconfigMsgs counts the messages of the epoch reconfiguration
	// protocol (Reconfigure/Failover): proposals, fences, state
	// transfers, readies and commits — the protocol-level cost of live
	// migration, separated from steady-state traffic.
	ReconfigMsgs int64
	// ReadCounts and WriteCounts are the cumulative per-node,
	// per-variable application operation counts (indexed by node;
	// variables a node never touched are absent from its map). They
	// count attempts, not granted operations — demand from outside a
	// variable's clique is included, which is exactly what a placement
	// policy wants to see. The same counters, windowed between policy
	// decisions, feed Policy.Plan.
	ReadCounts, WriteCounts []map[string]int64
}

// Stats returns a snapshot of the communication metrics.
func (c *Cluster) Stats() Stats {
	s := c.col.Snapshot()
	out := Stats{
		Msgs:       s.Msgs,
		CtrlBytes:  s.CtrlBytes,
		DataBytes:  s.DataBytes,
		MsgsByKind: s.PerKind,
		Touch:      s.Touch,
	}
	if s.Delay.Count > 0 {
		out.DelaySamples = s.Delay.Count
		out.DelayMean = time.Duration(s.Delay.MeanTicks)
		out.DelayP99 = time.Duration(s.Delay.QuantileTicks(0.99))
		out.DelayMax = time.Duration(s.Delay.MaxTicks)
	}
	out.Faults = s.Faults
	if c.rel != nil {
		rs := c.rel.Stats()
		out.Retransmits = rs.Retransmits
		out.DupsSuppressed = rs.DupsSuppressed
		out.AcksSent = rs.AcksSent
		out.Abandoned = rs.Abandoned
	}
	out.RecoveryMsgs = s.PerKind[mcs.KindSnapReq] + s.PerKind[mcs.KindSnapResp]
	for _, k := range []string{mcs.KindEpochPropose, mcs.KindEpochFence, mcs.KindEpochMigReq,
		mcs.KindEpochMigResp, mcs.KindEpochReady, mcs.KindEpochCommit} {
		out.ReconfigMsgs += s.PerKind[k]
	}
	for _, n := range c.nodes {
		if cr, ok := n.(mcs.CrashRestarter); ok {
			recs, ticks := cr.RecoveryStats()
			out.Recoveries += recs
			out.RecoveryTicks += ticks
		}
	}
	access := c.accessMaps(c.accessSnapshot())
	out.ReadCounts, out.WriteCounts = access.Reads, access.Writes
	return out
}

// VerifyEfficiency checks the paper's efficiency property (§3): for
// every variable x, only processes of C(x) have ever sent or received
// information about x. It returns nil when the property holds and a
// descriptive error naming the first violation otherwise.
//
// On a reconfigured cluster the check runs against the union of every
// attempted epoch's cliques — the touch metrics span the whole run,
// and transfer traffic legitimately reaches a variable's prospective
// replicas — so the property becomes: information about x never
// reached a process that was not in C(x) under any epoch.
//
// PRAM and Slow clusters satisfy it (Theorem 2); the causal
// configurations do not in general (Theorem 1).
func (c *Cluster) VerifyEfficiency() error {
	c.cmu.Lock()
	union := c.cliqueUnion
	c.cmu.Unlock()
	for _, x := range c.pl.Vars() {
		cx := make(map[int]bool)
		for _, p := range c.pl.Clique(x) {
			cx[p] = true
		}
		for p := range union[x] {
			cx[p] = true
		}
		for p := 0; p < c.pl.NumProcs(); p++ {
			if !cx[p] && c.col.Touched(p, x) {
				return fmt.Errorf("partialdsm: node %d handled information about %s but was never in C(%s) under any epoch",
					p, x, x)
			}
		}
	}
	return nil
}

// VerifyRelevanceBound checks the weaker Theorem 1 bound: information
// about x reaches only x-relevant processes (C(x) plus x-hoop members).
// CausalHoopAware satisfies this; CausalPartial and CausalFull do not
// on topologies with x-irrelevant processes. Like VerifyEfficiency,
// a reconfigured cluster is checked against the union of every
// attempted epoch's relevance sets.
func (c *Cluster) VerifyRelevanceBound() error {
	c.cmu.Lock()
	union := c.relUnion
	c.cmu.Unlock()
	for _, x := range c.pl.Vars() {
		rel := make(map[int]bool)
		for _, p := range c.pl.XRelevant(x) {
			rel[p] = true
		}
		for p := range union[x] {
			rel[p] = true
		}
		for p := 0; p < c.pl.NumProcs(); p++ {
			if !rel[p] && c.col.Touched(p, x) {
				return fmt.Errorf("partialdsm: node %d handled information about %s but was never %s-relevant under any epoch",
					p, x, x)
			}
		}
	}
	return nil
}

// VerifyWitness validates the recorded execution against the witness
// conditions of the cluster's consistency criterion (polynomial-time,
// suitable for large traces). Application goroutines must be idle and
// the cluster quiesced.
func (c *Cluster) VerifyWitness() error {
	if c.rec == nil {
		return ErrNoTrace
	}
	if err := c.Quiesce(); err != nil {
		return err
	}
	logs := c.rec.Logs()
	switch c.cfg.Consistency {
	case PRAM, Sequential:
		// Sequential executions satisfy the PRAM witness a fortiori;
		// their full strength is checked by CheckHistory.
		return check.WitnessPRAM(c.rec.NumProcs(), logs)
	case Atomic:
		c.cmu.Lock()
		hist := append([]*sharegraph.Index(nil), c.ownerHist...)
		c.cmu.Unlock()
		return check.WitnessAtomicDynamic(c.rec.NumProcs(), logs, func(x string, epoch uint64) (int, bool) {
			// Owners at the largest committed epoch ≤ the event's stamp
			// (committed epoch numbers are sparse: aborted attempts burn
			// numbers without entering the history).
			var ix *sharegraph.Index
			for _, h := range hist {
				if h.Epoch() > epoch {
					break
				}
				ix = h
			}
			if ix == nil {
				return -1, false
			}
			id := ix.ID(x)
			if id < 0 {
				return -1, false
			}
			if own := ix.Owner(id); own >= 0 {
				return own, true
			}
			return -1, false
		})
	case Slow:
		return check.WitnessSlow(c.rec.NumProcs(), logs)
	case CacheConsistency:
		return check.WitnessCache(c.rec.NumProcs(), logs)
	case CausalFull, CausalPartial, CausalHoopAware:
		h, err := c.rec.History()
		if err != nil {
			return err
		}
		return check.WitnessCausal(h, logs)
	default:
		return fmt.Errorf("partialdsm: no witness validator for %s", c.cfg.Consistency)
	}
}

// CheckHistory runs the exact consistency checkers of the execution
// model on the recorded history and returns the verdict per criterion
// name ("sequential", "causal", "lazy-causal", "lazy-semi-causal",
// "pram", "slow"). The exact checkers are exponential in the worst
// case: use only on small runs (≲ 24 operations).
func (c *Cluster) CheckHistory() (map[string]bool, error) {
	if c.rec == nil {
		return nil, ErrNoTrace
	}
	if err := c.Quiesce(); err != nil {
		return nil, err
	}
	h, err := c.rec.History()
	if err != nil {
		return nil, err
	}
	verdicts, err := check.CheckAll(h)
	if err != nil {
		return nil, err
	}
	out := make(map[string]bool, len(verdicts))
	for crit, v := range verdicts {
		out[string(crit)] = v
	}
	return out, nil
}

// History materializes the recorded global history as a model.History
// for in-module tooling (the cmd/ binaries and tests); external users
// should prefer HistoryJSON.
func (c *Cluster) History() (*model.History, error) {
	if c.rec == nil {
		return nil, ErrNoTrace
	}
	if err := c.Quiesce(); err != nil {
		return nil, err
	}
	return c.rec.History()
}

// HistoryJSON exports the recorded history in the JSON format consumed
// by cmd/dsm-check.
func (c *Cluster) HistoryJSON() ([]byte, error) {
	if c.rec == nil {
		return nil, ErrNoTrace
	}
	if err := c.Quiesce(); err != nil {
		return nil, err
	}
	h, err := c.rec.History()
	if err != nil {
		return nil, err
	}
	return h.MarshalJSON()
}

// ExportTrace serializes the execution — consistency configuration,
// placement, global history and per-node event logs — as a portable
// JSON snapshot that cmd/dsm-check (-trace) and internal/trace can
// verify offline.
func (c *Cluster) ExportTrace() ([]byte, error) {
	if c.rec == nil {
		return nil, ErrNoTrace
	}
	if err := c.Quiesce(); err != nil {
		return nil, err
	}
	h, err := c.rec.History()
	if err != nil {
		return nil, err
	}
	placement := make([][]string, c.pl.NumProcs())
	for p := range placement {
		placement[p] = c.pl.VarsOf(p)
	}
	return trace.Encode(string(c.cfg.Consistency), placement, h, c.rec.Logs())
}

// OpCount returns the number of recorded operations (0 without trace).
func (c *Cluster) OpCount() int {
	if c.rec == nil {
		return 0
	}
	return c.rec.OpCount()
}
