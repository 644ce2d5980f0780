package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"

	"partialdsm"
)

// perLayerDefs lists every per-layer metric, grouped by how it is
// measured. The README's interaction table says which end-to-end metric
// each one should move, on which workload.
func perLayerDefs() []metricDef {
	lo := func(name, unit string) metricDef { return metricDef{name: name, unit: unit, better: "lower"} }
	hi := func(name, unit string) metricDef { return metricDef{name: name, unit: unit, better: "higher"} }
	defs := []metricDef{
		// Spans around facade calls, from the traced pass of the named
		// workload.
		lo("facade.put_ns_p50", "ns"), lo("facade.put_ns_p99", "ns"), lo("facade.put_share", "share"),
		lo("facade.get_ns_p50", "ns"), lo("facade.get_ns_p99", "ns"), lo("facade.get_share", "share"),
		lo("facade.quiesce_us_p50", "us"), lo("facade.quiesce_us_p99", "us"), lo("facade.quiesce_share", "share"),
		lo("facade.new_ms", "ms"), lo("facade.close_ms", "ms"), lo("facade.stats_us", "us"),
		lo("facade.denied_op_share", "share"),
		// Control plane, from chaos_adaptive.
		lo("policy.tick_us_p50", "us"), lo("policy.tick_us_p99", "us"), lo("policy.flips_per_kop", "1/kop"),
		lo("reconfig.msgs_per_flip", "msgs"), lo("reconfig.us_per_flip", "us"),
		lo("recovery.msgs_per_rejoin", "msgs"), lo("recovery.ticks_per_rejoin", "ticks"), lo("recovery.us_per_rejoin", "us"),
		lo("reliable.retransmits_per_op", "1/op"), lo("reliable.acks_per_op", "1/op"),
		lo("reliable.dups_suppressed_per_op", "1/op"), lo("reliable.abandoned", "count"),
		lo("netsim.fault_drops_per_op", "1/op"), lo("netsim.fault_dups_per_op", "1/op"),
	}
	// Protocols, from proto_audit.
	for _, cons := range partialdsm.Consistencies {
		p := "mcs." + string(cons) + "."
		defs = append(defs, hi(p+"ops_per_s", "1/s"), lo(p+"msgs_per_op", "msgs/op"),
			lo(p+"ctrl_bytes_per_op", "B/op"), lo(p+"touch_ratio", "ratio"), lo(p+"witness_ms", "ms"))
	}
	defs = append(defs,
		lo("netsim.delay_mean_ticks", "ticks"), lo("check.witness_share", "share"), lo("check.efficiency_ms", "ms"),
		lo("trace.export_share", "share"), lo("trace.decode_verify_share", "share"))
	// Layer probes: direct calls into internal/*.
	for _, p := range probes {
		defs = append(defs, lo(p.name, p.unit))
	}
	// Layer ablations on the pram_storm shape.
	defs = append(defs, lo("ablate.base_ns_per_op", "ns"))
	for a := ablateBase + 1; a < numAblations; a++ {
		defs = append(defs, lo(ablationNames[a], "ns"))
	}
	// The benchmark itself.
	return append(defs, lo("bench.trace_overhead_pct", "%"), lo("runtime.peak_rss_mb", "MB"), lo("runtime.gc_cpu_frac", "share"))
}

// ledgerShare is the part of -seconds each pass of a traced run gets:
// a quarter for the untraced reference and the traced pass of the named
// workload, a tenth for each of the two workloads whose ledgers only
// they can fill.
const (
	tracedShare = 0.25
	fillShare   = 0.10
)

// tracedLedger measures every per-layer metric: the named workload
// untraced and traced at a quarter length, short passes of proto_audit
// and chaos_adaptive for the protocol and control-plane ledgers, the
// layer probes, and the layer ablations. The returned result sums the
// operations and failures of every pass.
func tracedLedger(def workloadDef, e *env, seconds float64, traceOut string) (*result, map[string]float64) {
	vals := make(map[string]float64)
	total := &result{}
	absorb := func(r *result) {
		total.ops += r.ops
		total.failed += r.failed
		total.denied += r.denied
		total.checks = append(total.checks, r.checks...)
	}
	once := *e
	once.sz.setups = 1

	var plain, traced *result
	named := func() {
		plain = measure(def, &once, tracedShare*seconds, nil)
		absorb(plain)
		tr := newTracer()
		traced = measure(def, &once, tracedShare*seconds, tr)
		absorb(traced)
		total.schedHash, total.lanes = traced.schedHash, traced.lanes
		if err := tr.write(traceOut, def.name); err != nil {
			total.failf("%v", err)
		}
		f := &tr.folds
		vals["facade.put_ns_p50"] = f[spanPut].h.quantile(0.50)
		vals["facade.put_ns_p99"] = f[spanPut].h.quantile(0.99)
		vals["facade.put_share"] = tr.share(spanPut, traced.wall)
		vals["facade.get_ns_p50"] = f[spanGet].h.quantile(0.50)
		vals["facade.get_ns_p99"] = f[spanGet].h.quantile(0.99)
		vals["facade.get_share"] = tr.share(spanGet, traced.wall)
		vals["facade.quiesce_us_p50"] = f[spanQuiesce].h.quantile(0.50) / 1e3
		vals["facade.quiesce_us_p99"] = f[spanQuiesce].h.quantile(0.99) / 1e3
		vals["facade.quiesce_share"] = tr.share(spanQuiesce, traced.wall)
		vals["facade.stats_us"] = f[spanStats].h.mean() / 1e3
		vals["facade.denied_op_share"] = perOp(float64(plain.denied), plain.ops)
		// The steady workloads build and close their one cluster
		// outside the timed region, so New and Close are timed here, on
		// the named workload's own configurations, for every workload
		// alike.
		vals["facade.new_ms"], vals["facade.close_ms"] = timeNewClose(def.configs(e.seed), total)
	}
	fill := func(name string) {
		src := plain
		if name != def.name {
			fd, _ := findWorkload(workloadDefs, name)
			src = measure(fd, &once, fillShare*seconds, nil)
			absorb(src)
		}
		for k, v := range src.layer {
			vals[k] = v
		}
	}
	// chaos_adaptive goes last, whether it is the named workload or a
	// fill: at the seed commit its recovery traffic leaves aliased
	// buffers in the process-wide frame pools, and a coalescing cluster
	// built afterwards in the same process reports touches that never
	// happened (README, "What the benchmark found").
	const last = "chaos_adaptive"
	if def.name != last {
		named()
	}
	fill("proto_audit")
	runProbes(e, vals, total)
	runAblations(e, vals, total)
	if def.name == last {
		named()
	}
	fill(last)

	vals["bench.trace_overhead_pct"] = 0
	if base := perSecond(plain.ops, plain.wall); base > 0 {
		vals["bench.trace_overhead_pct"] = 100 * (base - perSecond(traced.ops, traced.wall)) / base
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	vals["runtime.gc_cpu_frac"] = ms.GCCPUFraction
	vals["runtime.peak_rss_mb"] = peakRSSMB()
	return total, vals
}

// peakRSSMB reads the process's resident-set high-water mark; 0 where
// /proc is not available.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
