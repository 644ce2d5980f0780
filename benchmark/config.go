package main

import (
	"time"

	"partialdsm"
	"partialdsm/internal/workload"
)

// Every partialdsm.Config literal and every placement the benchmark
// builds lives in this file, so a regrouping of Config's knobs
// (ROADMAP item 5e) is a one-file mechanical edit here and leaves the
// drivers alone.

// virtualLatency is the per-message delay bound of every workload that
// runs on the virtual clock.
const virtualLatency = 100 * time.Microsecond

// ringPlacement puts variable v on the `width` consecutive nodes
// starting at v mod nodes.
func ringPlacement(nodes, vars, width int) *partialdsm.Placement {
	pl := partialdsm.NewPlacement(nodes)
	for v := 0; v < vars; v++ {
		for k := 0; k < width; k++ {
			pl.Assign((v+k)%nodes, workload.VarName(v))
		}
	}
	return pl
}

// chainPlacement puts variable v on nodes v mod (nodes-1) and the next
// one: neighbours share variables, nothing closes a cycle, so the share
// graph has no hoops.
func chainPlacement(nodes, vars int) *partialdsm.Placement {
	pl := partialdsm.NewPlacement(nodes)
	for v := 0; v < vars; v++ {
		p := v % (nodes - 1)
		pl.Assign(p, workload.VarName(v))
		pl.Assign(p+1, workload.VarName(v))
	}
	return pl
}

// fullPlacement replicates every variable on every node.
func fullPlacement(nodes, vars int) *partialdsm.Placement {
	return partialdsm.PlacementFromLists(workload.PlacementToConfig(workload.FullPlacement(nodes, vars)))
}

// Shapes of the two steady workloads.
const (
	stormNodes, stormVars, stormWidth = 16, 64, 4
	readsNodes, readsVars, readsWidth = 8, 256, 3
	readsValueLen                     = 64
)

func stormPlacement() *partialdsm.Placement {
	return ringPlacement(stormNodes, stormVars, stormWidth)
}

func readsPlacement() *partialdsm.Placement {
	return ringPlacement(readsNodes, readsVars, readsWidth)
}

// stormConfig is pram_storm: the paper's efficient protocol on its hot
// path, nothing optional switched on.
func stormConfig(seed int64) partialdsm.Config {
	return partialdsm.Config{
		Consistency:  partialdsm.PRAM,
		Placement:    stormPlacement(),
		Transport:    partialdsm.TransportSharded,
		Seed:         seed,
		DisableTrace: true,
	}
}

// readsConfig is zipf_reads: the same protocol family, read-mostly,
// with the coalescing outbox on.
func readsConfig(seed int64) partialdsm.Config {
	return partialdsm.Config{
		Consistency:   partialdsm.PRAM,
		Placement:     readsPlacement(),
		Transport:     partialdsm.TransportSharded,
		Seed:          seed,
		DisableTrace:  true,
		CoalesceBatch: 16,
	}
}

// Shape of proto_audit's clusters.
const auditNodes, auditVars = 8, 32

// auditConfig is one proto_audit episode: any protocol, virtual
// latency, trace on.
func auditConfig(cons partialdsm.Consistency, pl *partialdsm.Placement, seed int64) partialdsm.Config {
	return partialdsm.Config{
		Consistency:    cons,
		Placement:      pl,
		Transport:      partialdsm.TransportSharded,
		Seed:           seed,
		MaxLatency:     virtualLatency,
		VirtualLatency: true,
	}
}

// Shape of chaos_adaptive's clusters.
const chaosNodes, chaosVars = 4, 16

// chaosConfig is one chaos_adaptive cluster: lossy, duplicating links
// under the ack/retransmit layer. No OpDeadlineTicks — see the README
// for the false expiry that rules it out at the seed commit.
func chaosConfig(cons partialdsm.Consistency, seed int64) partialdsm.Config {
	return partialdsm.Config{
		Consistency:    cons,
		Placement:      fullPlacement(chaosNodes, chaosVars),
		Transport:      partialdsm.TransportSharded,
		Seed:           seed,
		MaxLatency:     virtualLatency,
		VirtualLatency: true,
		FaultDrop:      0.05,
		FaultDup:       0.05,
		FaultSeed:      seed,
		Reliable:       true,
		DisableTrace:   true,
	}
}

// chaosPolicy is E22's hysteresis setting.
func chaosPolicy() *partialdsm.GreedyPolicy {
	return &partialdsm.GreedyPolicy{MinTotal: 20, HotThreshold: 8, IdleThreshold: 1}
}

// ablation names one layer toggled on top of the pram_storm shape.
type ablation int

const (
	ablateBase ablation = iota
	ablateTraceOn
	ablateLiveVerify
	ablateReliable
	ablateCoalesce16
	ablateVirtualLatency
	numAblations
)

// ablationConfig is stormConfig with exactly one layer toggled.
func ablationConfig(a ablation, seed int64) partialdsm.Config {
	cfg := stormConfig(seed)
	switch a {
	case ablateTraceOn:
		cfg.DisableTrace = false
	case ablateLiveVerify:
		cfg.DisableTrace = false
		cfg.LiveVerify = true
	case ablateReliable:
		cfg.Reliable = true
	case ablateCoalesce16:
		cfg.CoalesceBatch = 16
	case ablateVirtualLatency:
		cfg.MaxLatency = virtualLatency
		cfg.VirtualLatency = true
	}
	return cfg
}

// probeCausalConfig builds the small causal-partial cluster whose
// exported trace feeds the checker and trace-codec probes.
func probeCausalConfig(seed int64) partialdsm.Config {
	return auditConfig(partialdsm.CausalPartial, ringPlacement(auditNodes, auditVars, 3), seed)
}

// The configurations each workload constructs a cluster from, for
// timing New and Close on them.

func stormConfigs(seed int64) []partialdsm.Config { return []partialdsm.Config{stormConfig(seed)} }

func readsConfigs(seed int64) []partialdsm.Config { return []partialdsm.Config{readsConfig(seed)} }

func auditConfigs(seed int64) []partialdsm.Config {
	var cfgs []partialdsm.Config
	for _, cons := range partialdsm.Consistencies {
		cfgs = append(cfgs,
			auditConfig(cons, ringPlacement(auditNodes, auditVars, 3), seed),
			auditConfig(cons, chainPlacement(auditNodes, auditVars), seed))
	}
	return cfgs
}

func chaosConfigs(seed int64) []partialdsm.Config {
	var cfgs []partialdsm.Config
	for _, cons := range chaosProtocols {
		cfgs = append(cfgs, chaosConfig(cons, seed))
	}
	return cfgs
}
