// Package metrics accounts for the control information that MCS
// processes exchange — the quantity the paper's efficiency notion is
// about. Every wire message is split into control bytes (identifiers,
// sequence numbers, dependency vectors) and data bytes (the written
// value); in addition, a touch matrix records which nodes ever send or
// receive information mentioning which variables.
//
// The paper's "efficient partial replication" (§3) becomes the
// checkable invariant: touch(p, x) ⇒ p ∈ C(x).
//
// The collector sits on every Send, so RecordMessage's steady state
// takes no lock: counts are atomic counters sharded by sending node,
// kinds and variable names are interned once (names to dense ids), and
// the touch matrix is one bitset per node, tested before it is set.
// RecordMessage takes the mutex only for something new — a kind, a
// node, a name, or the first touch of a (node, variable) pair, at most
// nodes × variables times in a collector's life. Reserve moves the
// table growth to set-up; every other method locks.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Collector accumulates message and byte counts plus the per-node
// per-variable touch matrix, and — when the transport simulates
// latency in virtual time — a histogram of per-message delivery
// delays, the quantity the paper's delay/efficiency trade-off is
// about. All methods are safe for concurrent use; the zero value is an
// empty collector. Node ids index a table: small and non-negative.
type Collector struct {
	// Read without the lock by RecordMessage. Counters live in objects
	// whose addresses never change; the tables that point to them are
	// replaced, copy-on-write, only under mu.
	nodes  atomic.Pointer[[]*nodeState]      // by node id; nil where none yet
	varIDs atomic.Pointer[map[string]uint32] // published name → id

	mu     sync.Mutex
	names  []string          // id → name, append-only (Reset keeps it)
	dirty  map[string]uint32 // names interned since varIDs was published
	misses int               // locked lookups since varIDs was published
	faults map[string]int64

	delayN       int64
	delaySum     float64 // float accumulator: uint64 would wrap after a handful of MaxInt64-scale delays
	delayMax     uint64
	delayBuckets [65]int64 // bucket i counts delays of bit-length i: [2^(i-1), 2^i)
}

const cacheLine = 64

// kindCounter counts one node's sent messages of one kind.
type kindCounter struct {
	name string
	n    atomic.Int64
	_    [cacheLine - 24]byte
}

// nodeState is one node's shard: the counters only its own sends bump
// on one cache line, what every peer's sends read on the next.
type nodeState struct {
	ctrlBytes, dataBytes atomic.Int64
	kinds                atomic.Pointer[[]*kindCounter] // message counts, by kind
	_                    [cacheLine - 24]byte

	seen  atomic.Bool                     // an endpoint of some message since Reset
	touch atomic.Pointer[[]atomic.Uint64] // bit id: handled information about names[id]
	_     [cacheLine - 16]byte
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return new(Collector) }

// load returns the table (slice or map) p points to, nil before the
// first store.
func load[T any](p *atomic.Pointer[T]) (t T) {
	if q := p.Load(); q != nil {
		t = *q
	}
	return t
}

// Reserve sizes the collector for a cluster of the given node count
// over the given variables, interning the names in order (ids 0, 1, …
// on a fresh collector), so that recording on a running cluster never
// grows a table. Other nodes and names are still accepted afterwards.
func (c *Collector) Reserve(nodes int, vars []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, x := range vars {
		c.internLocked(x)
	}
	c.publishLocked()
	for i := nodes - 1; i >= 0; i-- {
		c.bitsLocked(c.nodeLocked(i), uint32(len(c.names)))
	}
}

// RecordMessage accounts one message from node `from` to node `to`
// with the given control/data byte split, carrying information about
// the listed variables. Both endpoints are marked as touching the
// variables.
func (c *Collector) RecordMessage(kind string, from, to int, ctrlBytes, dataBytes int, vars []string) {
	ends := [2]*nodeState{c.node(from), c.node(to)}
	c.kind(ends[0], kind).n.Add(1)
	ends[0].ctrlBytes.Add(int64(ctrlBytes))
	ends[0].dataBytes.Add(int64(dataBytes))
	for _, n := range ends {
		if !n.seen.Load() {
			n.seen.Store(true)
		}
	}
	for _, x := range vars {
		id := c.varID(x)
		if ends[0].touched(id) && ends[1].touched(id) {
			continue
		}
		c.mu.Lock()
		for _, n := range ends {
			w := c.bitsLocked(n, id)
			w[id>>6].Store(w[id>>6].Load() | 1<<(id&63))
		}
		c.mu.Unlock()
	}
}

// kind returns n's counter of the named kind. Kinds are few and the
// runtime compares strings pointer-first, so a scan beats a hash.
func (c *Collector) kind(n *nodeState, name string) *kindCounter {
	for _, k := range load(&n.kinds) {
		if k.name == name {
			return k
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	old := load(&n.kinds)
	for _, k := range old {
		if k.name == name {
			return k
		}
	}
	next := append(old[:len(old):len(old)], &kindCounter{name: name})
	n.kinds.Store(&next)
	return next[len(old)]
}

// node returns the shard of node i.
func (c *Collector) node(i int) *nodeState {
	if t := load(&c.nodes); uint(i) < uint(len(t)) && t[i] != nil {
		return t[i]
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodeLocked(i)
}

func (c *Collector) nodeLocked(i int) *nodeState {
	t := load(&c.nodes)
	if i < len(t) && t[i] != nil {
		return t[i]
	}
	next := make([]*nodeState, max(len(t), i+1))
	copy(next, t)
	next[i] = new(nodeState)
	c.nodes.Store(&next)
	return next[i]
}

// varID returns the dense id of variable x, interning it on first use.
func (c *Collector) varID(x string) uint32 {
	if id, ok := load(&c.varIDs)[x]; ok {
		return id
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.internLocked(x)
}

// internLocked is varID under the mutex. A name not yet published
// lives in dirty; the published map is rebuilt once the lookups that
// had to lock since the last rebuild outnumber the names, so interning
// V names costs O(V) in all and a name that is no longer new stops
// taking the lock.
func (c *Collector) internLocked(x string) uint32 {
	id, ok := load(&c.varIDs)[x]
	if ok {
		return id
	}
	if id, ok = c.dirty[x]; !ok {
		if c.dirty == nil {
			c.dirty = make(map[string]uint32)
		}
		id = uint32(len(c.names))
		c.names = append(c.names, x)
		c.dirty[x] = id
	}
	if c.misses++; c.misses >= len(c.names) {
		c.publishLocked()
	}
	return id
}

func (c *Collector) publishLocked() {
	m := make(map[string]uint32, len(c.names))
	for id, x := range c.names {
		m[x] = uint32(id)
	}
	c.varIDs.Store(&m)
	c.dirty, c.misses = nil, 0
}

// touched reports, without locking, whether bit id is set.
func (n *nodeState) touched(id uint32) bool {
	w := load(&n.touch)
	return int(id>>6) < len(w) && w[id>>6].Load()&(1<<(id&63)) != 0
}

// bitsLocked returns n's bitset, grown to hold bit id. Bits are only
// ever set under the mutex, so the copy loses none; a reader still
// holding the old bitset sees the new bit clear and comes here.
func (c *Collector) bitsLocked(n *nodeState, id uint32) []atomic.Uint64 {
	w := load(&n.touch)
	if int(id>>6) >= len(w) {
		grown := make([]atomic.Uint64, max(2*len(w), len(c.names)>>6+1))
		for i := range w {
			grown[i].Store(w[i].Load())
		}
		n.touch.Store(&grown)
		w = grown
	}
	return w
}

// RecordDelay accounts one message's drawn virtual delivery delay, in
// clock ticks. Transports call it once per message in virtual-latency
// mode with the seed-derived draw (not the effective wait, which also
// folds in FIFO queueing and is scheduling-dependent); the real-sleep
// mode records nothing (wall delays are not part of the deterministic
// surface).
func (c *Collector) RecordDelay(ticks uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.delayN++
	c.delaySum += float64(ticks)
	if ticks > c.delayMax {
		c.delayMax = ticks
	}
	c.delayBuckets[bits.Len64(ticks)]++
}

// RecordFault accounts one injected network fault by kind ("drop",
// "dup", "partition", "crash"). Transports with fault injection
// enabled call it once per affected message.
func (c *Collector) RecordFault(kind string) {
	c.mu.Lock()
	if c.faults == nil {
		c.faults = make(map[string]int64)
	}
	c.faults[kind]++
	c.mu.Unlock()
}

// Touched reports whether node ever sent or received information about
// variable x.
func (c *Collector) Touched(node int, x string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, ok := load(&c.varIDs)[x]
	if !ok {
		if id, ok = c.dirty[x]; !ok {
			return false
		}
	}
	t := load(&c.nodes)
	return uint(node) < uint(len(t)) && t[node] != nil && t[node].touched(id)
}

// Stats is an immutable snapshot of a collector.
type Stats struct {
	Msgs      int64
	CtrlBytes int64
	DataBytes int64
	PerKind   map[string]int64
	// Touch maps node → sorted variables the node has information about.
	Touch map[int][]string
	// Faults counts injected network faults by kind ("drop", "dup",
	// "partition", "crash"); nil when no fault was recorded.
	Faults map[string]int64
	// Delay summarizes the recorded virtual delivery delays; the zero
	// value (Count == 0) means the transport recorded none (real-sleep
	// or zero-latency mode).
	Delay DelayStats
}

// DelayStats summarizes a delivery-delay histogram, in virtual clock
// ticks (one tick per nanosecond of configured latency).
type DelayStats struct {
	// Count is the number of recorded delays (one per message).
	Count int64
	// MeanTicks is the arithmetic mean delay.
	MeanTicks float64
	// MaxTicks is the largest recorded delay.
	MaxTicks uint64
	// Buckets is the log₂ histogram: Buckets[i] counts delays of
	// bit-length i, i.e. in [2^(i-1), 2^i) (bucket 0 counts exact
	// zeros). Trailing empty buckets are trimmed.
	Buckets []int64
}

// QuantileTicks returns an upper-bound estimate of the q-quantile
// (0 < q ≤ 1) from the log₂ histogram: the upper edge of the bucket
// the quantile falls in, clamped to MaxTicks. Returns 0 for an empty
// histogram.
func (d DelayStats) QuantileTicks(q float64) uint64 {
	if d.Count == 0 {
		return 0
	}
	// Nearest-rank: the smallest rank covering a q fraction of the
	// samples (ceil, so the top samples are never excluded).
	rank := int64(math.Ceil(q * float64(d.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, n := range d.Buckets {
		seen += n
		if seen >= rank {
			if i == 0 {
				return 0
			}
			edge := uint64(1) << uint(i)
			if edge-1 > d.MaxTicks {
				return d.MaxTicks
			}
			return edge - 1
		}
	}
	return d.MaxTicks
}

// Snapshot returns a copy of the current counters.
func (c *Collector) Snapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{PerKind: make(map[string]int64), Touch: make(map[int][]string)}
	for node, n := range load(&c.nodes) {
		if n == nil {
			continue
		}
		for _, k := range load(&n.kinds) {
			if sent := k.n.Load(); sent > 0 {
				s.Msgs += sent
				s.PerKind[k.name] += sent
			}
		}
		s.CtrlBytes += n.ctrlBytes.Load()
		s.DataBytes += n.dataBytes.Load()
		if !n.seen.Load() {
			continue
		}
		list := []string{}
		w := load(&n.touch)
		for i := range w {
			for b := w[i].Load(); b != 0; b &= b - 1 {
				list = append(list, c.names[i<<6+bits.TrailingZeros64(b)])
			}
		}
		sort.Strings(list)
		s.Touch[node] = list
	}
	if c.delayN > 0 {
		s.Delay = DelayStats{
			Count:     c.delayN,
			MeanTicks: c.delaySum / float64(c.delayN),
			MaxTicks:  c.delayMax,
		}
		top := 0
		for i, n := range c.delayBuckets {
			if n > 0 {
				top = i
			}
		}
		s.Delay.Buckets = append([]int64(nil), c.delayBuckets[:top+1]...)
	}
	if len(c.faults) > 0 {
		s.Faults = make(map[string]int64, len(c.faults))
		for k, v := range c.faults {
			s.Faults[k] = v
		}
	}
	return s
}

// Reset clears all counters. The shards are dropped, not zeroed: a
// RecordMessage racing with Reset counts as recorded before it.
// Interned names keep their ids.
func (c *Collector) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nodes.Store(nil)
	c.faults = nil
	c.delayN, c.delaySum, c.delayMax = 0, 0, 0
	c.delayBuckets = [65]int64{}
}

// String summarizes the snapshot.
func (s Stats) String() string {
	return fmt.Sprintf("msgs=%d ctrlBytes=%d dataBytes=%d", s.Msgs, s.CtrlBytes, s.DataBytes)
}

// CtrlBytesPerMsg returns the mean control payload per message, 0 for
// an empty collector.
func (s Stats) CtrlBytesPerMsg() float64 {
	if s.Msgs == 0 {
		return 0
	}
	return float64(s.CtrlBytes) / float64(s.Msgs)
}
