package main

import (
	"fmt"
	"sort"
	"time"

	"partialdsm"
)

// metricDef is one named metric: its unit, which direction is better,
// and for an end-to-end metric the share of the parent's median it may
// worsen by. BENCHMARK.json carries the same table; the smoke test
// holds the two equal.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEndDefs are the metrics a user of the DSM would see; every
// workload reports all of them from its untraced pass.
var endToEndDefs = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.08},
	{"round_us_p50", "us", "lower", 0.10},
	{"round_us_p99", "us", "lower", 0.20},
	{"msgs_per_op", "msgs/op", "lower", 0.05},
	{"ctrl_bytes_per_op", "B/op", "lower", 0.05},
	{"data_bytes_per_op", "B/op", "lower", 0.05},
	{"touch_ratio", "ratio", "lower", 0.03},
	{"allocs_per_op", "allocs/op", "lower", 0.25},
	{"alloc_bytes_per_op", "B/op", "lower", 0.10},
	{"live_heap_mb", "MB", "lower", 0.20},
	{"granted_op_share", "share", "higher", 0.02},
	{"setup_s", "s", "lower", 0.25},
}

// result is what one pass over one workload measured.
type result struct {
	schedHash uint64
	// ops counts Put/Get/GetInto calls that returned; failed those that
	// returned an error other than mcs.ErrNotReplicated; denied those
	// that returned ErrNotReplicated.
	ops, failed, denied int64
	// checks lists failed verdicts and asserts; any entry makes the run
	// incorrect.
	checks []string
	wall   time.Duration
	// lanes holds one round-time histogram per kind of cluster the
	// workload drives (one for the steady workloads, protocol × graph
	// for proto_audit, protocol for chaos_adaptive). A pooled histogram
	// of several protocols is multi-modal and its median sits in a
	// sparse gap between modes; the reported percentiles are the mean of
	// the lanes' percentiles instead.
	lanes []hist
	// Simulated statistics over the timed region, from Cluster.Stats.
	msgs, ctrl, data     int64
	touchPairs, ownPairs int64
	// runtime.MemStats deltas over the timed region.
	mallocs, allocBytes uint64
	liveHeap            uint64
	setups              []time.Duration
	// layer holds the per-layer numbers only this workload can produce
	// (the protocol table of proto_audit, the control plane of
	// chaos_adaptive).
	layer map[string]float64
}

func (r *result) failf(format string, args ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

// round records one round's duration in its lane.
func (r *result) round(lane int, ns int64) {
	for len(r.lanes) <= lane {
		r.lanes = append(r.lanes, hist{})
	}
	r.lanes[lane].add(ns)
}

// rounds is the number of round samples over all lanes.
func (r *result) rounds() int64 {
	var n int64
	for i := range r.lanes {
		n += r.lanes[i].n
	}
	return n
}

// roundQuantile is the mean over the lanes of each lane's q-quantile,
// in nanoseconds.
func (r *result) roundQuantile(q float64) float64 {
	if len(r.lanes) == 0 {
		return 0
	}
	sum := 0.0
	for i := range r.lanes {
		sum += r.lanes[i].quantile(q)
	}
	return sum / float64(len(r.lanes))
}

func (r *result) correct() bool { return len(r.checks) == 0 && r.failed == 0 }

func (r *result) setLayer(name string, v float64) {
	if r.layer == nil {
		r.layer = make(map[string]float64)
	}
	r.layer[name] = v
}

func perOp(total float64, ops int64) float64 {
	if ops == 0 {
		return 0
	}
	return total / float64(ops)
}

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func perSecond(n int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// endToEnd renders the end-to-end metrics, keyed like endToEndDefs.
func (r *result) endToEnd() map[string]float64 {
	return map[string]float64{
		"ops_per_s":          perSecond(r.ops, r.wall),
		"round_us_p50":       r.roundQuantile(0.50) / 1e3,
		"round_us_p99":       r.roundQuantile(0.99) / 1e3,
		"msgs_per_op":        perOp(float64(r.msgs), r.ops),
		"ctrl_bytes_per_op":  perOp(float64(r.ctrl), r.ops),
		"data_bytes_per_op":  perOp(float64(r.data), r.ops),
		"touch_ratio":        perOp(float64(r.touchPairs), r.ownPairs),
		"allocs_per_op":      perOp(float64(r.mallocs), r.ops),
		"alloc_bytes_per_op": perOp(float64(r.allocBytes), r.ops),
		"live_heap_mb":       float64(r.liveHeap) / (1 << 20),
		"granted_op_share":   1 - perOp(float64(r.denied), r.ops),
		"setup_s":            median(r.setups).Seconds(),
	}
}

// addTraffic folds the difference of two Stats snapshots into the
// simulated-statistics totals.
func (r *result) addTraffic(from, to partialdsm.Stats) {
	r.msgs += to.Msgs - from.Msgs
	r.ctrl += to.CtrlBytes - from.CtrlBytes
	r.data += to.DataBytes - from.DataBytes
}

// replicaSets returns, per node, the set of variables pl assigns it
// (the paper's X_i).
func replicaSets(pl *partialdsm.Placement) []map[string]bool {
	holds := make([]map[string]bool, pl.NumNodes())
	for node, vars := range pl.Lists() {
		holds[node] = make(map[string]bool, len(vars))
		for _, x := range vars {
			holds[node][x] = true
		}
	}
	return holds
}

// touchPairs counts the (node, variable) pairs of a touch matrix and
// how many of them have the variable in the node's own replica set.
// Their quotient is the paper's efficiency notion as one number:
// exactly 1 when information about x only ever reached C(x).
func touchPairs(touch map[int][]string, holds []map[string]bool) (pairs, own int64) {
	for node, vars := range touch {
		for _, x := range vars {
			pairs++
			if holds[node][x] {
				own++
			}
		}
	}
	return pairs, own
}
