package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"partialdsm"
	"partialdsm/internal/workload"
)

// ablationNames are the metric names of the layer ablations: each is
// the ns/op a layer adds to (or takes off) one PRAM write of the
// pram_storm shape when it alone is switched on.
var ablationNames = [numAblations]string{
	ablateBase:           "ablate.base_ns_per_op",
	ablateTraceOn:        "ablate.trace_on_delta_ns",
	ablateLiveVerify:     "ablate.live_verify_delta_ns",
	ablateReliable:       "ablate.reliable_delta_ns",
	ablateCoalesce16:     "ablate.coalesce16_delta_ns",
	ablateVirtualLatency: "ablate.vlat_delta_ns",
}

// runAblations is ROADMAP 2a's "one PRAM write, stacked": the same
// rounds of writes under the base configuration and under each single
// toggle, reported as the difference from the base.
func runAblations(e *env, vals map[string]float64, total *result) {
	idx := varIndex(stormVars)
	gen := workload.NewZipfMix(e.seed, stormNodes, stormVars, 1.1, 0)
	sched := genSchedule(gen, 1<<12, idx, cliquesOf(stormPlacement(), idx), 0, 0)
	var base float64
	for a := ablateBase; a < numAblations; a++ {
		ns, err := ablationRun(ablationConfig(a, e.seed), sched, e.sz.ablateRounds)
		if err != nil {
			total.failf("%s: %v", ablationNames[a], err)
		}
		if a == ablateBase {
			base = ns
			vals[ablationNames[a]] = ns
		} else {
			vals[ablationNames[a]] = ns - base
		}
	}
}

// ablationRun times `rounds` rounds of 64 writes plus Quiesce, after a
// tenth as many warm-up rounds, and returns nanoseconds per write.
func ablationRun(cfg partialdsm.Config, sched schedule, rounds int) (float64, error) {
	const blockOps = 64
	c, err := partialdsm.New(cfg)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	b := bind(c, stormVars)
	var val [8]byte
	var ctr uint64
	pos := 0
	runRounds := func(n int) error {
		for r := 0; r < n; r++ {
			for k := 0; k < blockOps; k++ {
				d := sched.draws[pos]
				if pos++; pos == len(sched.draws) {
					pos = 0
				}
				ctr++
				binary.BigEndian.PutUint64(val[:], ctr)
				if err := b.handles[d.node].Put(b.names[d.v], val[:]); err != nil {
					return err
				}
			}
			if err := c.Quiesce(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := runRounds(rounds/10 + 1); err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := runRounds(rounds); err != nil {
		return 0, err
	}
	ns := float64(time.Since(t0)) / float64(rounds*blockOps)
	if !cfg.DisableTrace {
		if err := c.VerifyWitness(); err != nil {
			return ns, fmt.Errorf("witness: %w", err)
		}
	}
	if cfg.LiveVerify {
		if err := c.LiveError(); err != nil {
			return ns, fmt.Errorf("live monitor: %w", err)
		}
	}
	return ns, c.Err()
}

// timeNewClose times partialdsm.New and Cluster.Close on every given
// configuration and returns the mean milliseconds of each.
func timeNewClose(cfgs []partialdsm.Config, total *result) (newMS, closeMS float64) {
	const reps = 5
	var tNew, tClose time.Duration
	n := 0
	for _, cfg := range cfgs {
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			c, err := partialdsm.New(cfg)
			t1 := time.Now()
			if err != nil {
				total.failf("new: %v", err)
				return 0, 0
			}
			c.Close()
			tNew += t1.Sub(t0)
			tClose += time.Since(t1)
			n++
		}
	}
	return tNew.Seconds() * 1e3 / float64(n), tClose.Seconds() * 1e3 / float64(n)
}
