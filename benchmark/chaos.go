package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"partialdsm"
	"partialdsm/internal/mcs"
	"partialdsm/internal/workload"
)

// chaosProtocols are the two protocols chaos_adaptive drives: one
// wait-free and ownerless, one blocking with a migrating primary. See
// the README for why cache consistency is left out.
var chaosProtocols = []partialdsm.Consistency{partialdsm.PRAM, partialdsm.Atomic}

// chaosCluster is one protocol's cluster of the current episode with
// its policy loop.
type chaosCluster struct {
	cons     partialdsm.Consistency
	c        *partialdsm.Cluster
	b        binding
	driver   *partialdsm.PolicyDriver
	ctr      uint64
	restarts int
}

// chaosLedger sums the control-plane counters of every closed episode.
type chaosLedger struct {
	flips, rejoins                                         int
	reconfigMsgs, recoveryMsgs                             int64
	recoveryTicks                                          uint64
	retransmits, acks, dups, abandoned, drops, faultsDuped int64
}

// chaos is one set-up of chaos_adaptive: the control plane under
// faults. Each phase rotates the hot slices, replays a block structure
// of un-re-homed operations (a denial is the policy's signal) with a
// policy decision after every block, then crashes and restarts a node.
//
// The phases run in episodes: every chaosEpisode phases the clusters
// are checked, closed and rebuilt fully replicated under a fresh
// sub-seed. GreedyPolicy only reconsiders a variable whose window
// demand reaches MinTotal, so on one long-lived cluster the cold
// variables shed replicas in rare, irreversible steps whose timing is
// an accident of the seed — message counts then differ by 10% from
// seed to seed however long the run. Averaging many short, independent
// trajectories is what makes the counts of two seeds comparable.
type chaos struct {
	sz       sizing
	seed     int64
	sched    schedule
	full     []map[string]bool // replica sets of the initial, fully replicated placement
	clusters []chaosCluster
	phase    int // next schedule phase to replay
	episode  int // episodes started
	inEp     int // phases replayed in the current episode

	led                 chaosLedger
	ticks               hist
	flipTime, crashTime time.Duration
	liveHeap            uint64
}

func (ch *chaos) setup(e *env) error {
	ch.sz, ch.seed = e.sz, e.seed
	ch.full = replicaSets(fullPlacement(chaosNodes, chaosVars))
	gen := workload.NewZipfMix(e.seed, chaosNodes, chaosVars, 1.6, 0.65)
	ch.sched = genSchedule(gen, ch.sz.chaosPhases*ch.sz.chaosPhaseOps, varIndex(chaosVars), nil,
		ch.sz.chaosPhaseOps, chaosVars/2)
	// The warm-up is an episode of its own, run on a copy: it fills the
	// process-wide buffer pools and leaves the measured state untouched.
	warm, scratch := &result{}, *ch
	scratch.sz.chaosEpisode = ch.sz.chaosWarmPhases
	for p := 0; p < ch.sz.chaosWarmPhases; p++ {
		if !scratch.step(nil, warm) {
			scratch.discard()
			return fmt.Errorf("warm-up failed: %v", warm.checks)
		}
	}
	if len(warm.checks) > 0 {
		return fmt.Errorf("warm-up failed: %v", warm.checks)
	}
	return nil
}

func (ch *chaos) hash() uint64 { return ch.sched.hash }

// open builds the next episode's clusters.
func (ch *chaos) open(tr *tracer, res *result) bool {
	sub := ch.seed*1_000_003 + int64(ch.episode)
	ch.episode++
	for _, cons := range chaosProtocols {
		tr.begin(spanNew)
		c, err := partialdsm.New(chaosConfig(cons, sub))
		tr.end()
		if err != nil {
			res.failf("%s: new: %v", cons, err)
			return false
		}
		ch.clusters = append(ch.clusters, chaosCluster{cons: cons, c: c, b: bind(c, chaosVars),
			driver: c.NewPolicyDriver(chaosPolicy(), 1)})
	}
	return true
}

// step replays the next schedule phase on every cluster, opening and
// closing episodes as they come due. The counts of this workload jitter
// with scheduling whatever the stopping rule, so it may stop after any
// phase.
func (ch *chaos) step(tr *tracer, res *result) bool {
	if len(ch.clusters) == 0 && !ch.open(tr, res) {
		return false
	}
	for i := range ch.clusters {
		if !ch.runPhase(tr, res, i, ch.phase, &ch.ticks) {
			return false
		}
	}
	if ch.phase++; ch.phase == ch.sz.chaosPhases {
		ch.phase = 0
	}
	if ch.inEp++; ch.inEp == ch.sz.chaosEpisode {
		ch.closeEpisode(tr, res)
	}
	return true
}

// runPhase replays schedule phase p on cluster lane.
func (ch *chaos) runPhase(tr *tracer, res *result, lane, p int, ticks *hist) bool {
	cl := &ch.clusters[lane]
	draws := ch.sched.draws[p*ch.sz.chaosPhaseOps : (p+1)*ch.sz.chaosPhaseOps]
	var val [8]byte
	for len(draws) > 0 {
		block := draws
		if len(block) > ch.sz.chaosBlock {
			block = block[:ch.sz.chaosBlock]
		}
		draws = draws[len(block):]
		r0 := nanotime()
		tr.begin(spanRound)
		var t int64
		if tr != nil {
			t = tr.now()
		}
		for _, d := range block {
			h, x := cl.b.handles[d.node], cl.b.names[d.v]
			var err error
			if d.read {
				_, err = h.Get(x)
				if tr != nil {
					t = tr.leaf(spanGet, t)
				}
			} else {
				cl.ctr++
				binary.BigEndian.PutUint64(val[:], cl.ctr)
				err = h.Put(x, val[:])
				if tr != nil {
					t = tr.leaf(spanPut, t)
				}
			}
			res.ops++
			if err != nil {
				if errors.Is(err, mcs.ErrNotReplicated) {
					res.denied++
					continue
				}
				res.failed++
				res.failf("%s: op on %s at node %d: %v", cl.cons, x, d.node, err)
				tr.end()
				return false
			}
		}
		tr.begin(spanQuiesce)
		err := cl.c.Quiesce()
		tr.end()
		if err != nil {
			res.failf("%s: quiesce: %v", cl.cons, err)
			tr.end()
			return false
		}
		t0 := nanotime()
		tr.begin(spanTick)
		flipped, err := cl.driver.Tick()
		tr.end()
		dt := nanotime() - t0
		ticks.add(dt)
		if flipped {
			ch.flipTime += time.Duration(dt)
		}
		tr.end()
		if err != nil {
			res.failf("%s: policy tick: %v", cl.cons, err)
			return false
		}
		res.round(lane, nanotime()-r0)
	}

	// Node 0 never crashes, so every variable keeps a survivor to
	// recover from.
	node := 1 + p%(chaosNodes-1)
	t0 := nanotime()
	tr.begin(spanCrashRestart)
	err := cl.c.CrashNode(node)
	if err == nil {
		err = cl.c.RestartNode(node)
	}
	if err == nil {
		err = cl.c.Quiesce()
	}
	tr.end()
	ch.crashTime += time.Duration(nanotime() - t0)
	cl.restarts++
	if err != nil {
		res.failf("%s: crash/restart of node %d: %v", cl.cons, node, err)
		return false
	}
	return true
}

// closeEpisode runs the episode's output checks, folds its statistics
// into res and the ledger, and closes its clusters.
func (ch *chaos) closeEpisode(tr *tracer, res *result) {
	for i := range ch.clusters {
		cl := &ch.clusters[i]
		tr.begin(spanStats)
		st := cl.c.Stats()
		tr.end()
		res.addTraffic(partialdsm.Stats{}, st)
		// Replicas only ever shrink from full replication and grow back
		// toward it, so the initial placement is the union of every
		// epoch's X_i — the sets the efficiency notion is judged
		// against on a reconfigured cluster.
		pairs, own := touchPairs(st.Touch, ch.full)
		res.touchPairs += pairs
		res.ownPairs += own
		if err := cl.c.Err(); err != nil {
			res.failf("%s: cluster fault: %v", cl.cons, err)
		}
		if st.Recoveries != cl.restarts {
			res.failf("%s: %d recoveries completed for %d restarts", cl.cons, st.Recoveries, cl.restarts)
		}
		if cl.cons == partialdsm.Atomic {
			ch.checkConverged(res, cl)
		}
		led := &ch.led
		led.flips += cl.driver.Flips()
		led.rejoins += cl.restarts
		led.reconfigMsgs += st.ReconfigMsgs
		led.recoveryMsgs += st.RecoveryMsgs
		led.recoveryTicks += st.RecoveryTicks
		led.retransmits += st.Retransmits
		led.acks += st.AcksSent
		led.dups += st.DupsSuppressed
		led.abandoned += st.Abandoned
		led.drops += st.Faults["drop"]
		led.faultsDuped += st.Faults["dup"]
	}
	// Live heap is read once, at the end of the first episode — a fixed
	// point of the run, with the epoch histories of a whole episode
	// still held.
	if ch.liveHeap == 0 {
		ch.liveHeap = liveHeap()
	}
	ch.discard()
}

func (ch *chaos) finish(tr *tracer, res *result) {
	if len(ch.clusters) > 0 {
		ch.closeEpisode(tr, res)
	}
	res.liveHeap = ch.liveHeap
	led := &ch.led
	res.setLayer("policy.tick_us_p50", ch.ticks.quantile(0.50)/1e3)
	res.setLayer("policy.tick_us_p99", ch.ticks.quantile(0.99)/1e3)
	res.setLayer("policy.flips_per_kop", perOp(float64(led.flips)*1e3, res.ops))
	res.setLayer("reconfig.msgs_per_flip", perOp(float64(led.reconfigMsgs), int64(led.flips)))
	res.setLayer("reconfig.us_per_flip", perOp(ch.flipTime.Seconds()*1e6, int64(led.flips)))
	res.setLayer("recovery.msgs_per_rejoin", perOp(float64(led.recoveryMsgs), int64(led.rejoins)))
	res.setLayer("recovery.ticks_per_rejoin", perOp(float64(led.recoveryTicks), int64(led.rejoins)))
	res.setLayer("recovery.us_per_rejoin", perOp(ch.crashTime.Seconds()*1e6, int64(led.rejoins)))
	res.setLayer("reliable.retransmits_per_op", perOp(float64(led.retransmits), res.ops))
	res.setLayer("reliable.acks_per_op", perOp(float64(led.acks), res.ops))
	res.setLayer("reliable.dups_suppressed_per_op", perOp(float64(led.dups), res.ops))
	res.setLayer("reliable.abandoned", float64(led.abandoned))
	res.setLayer("netsim.fault_drops_per_op", perOp(float64(led.drops), res.ops))
	res.setLayer("netsim.fault_dups_per_op", perOp(float64(led.faultsDuped), res.ops))
}

// checkConverged asserts that every member of C(x) reads the same
// value of x. Only the atomic cluster is held to it: PRAM replicas may
// legitimately diverge under concurrent writers.
func (ch *chaos) checkConverged(res *result, cl *chaosCluster) {
	for _, x := range cl.b.names {
		var first []byte
		for k, node := range cl.c.Clique(x) {
			got, err := cl.b.handles[node].Get(x)
			if err != nil {
				res.failf("%s: final read of %s at node %d: %v", cl.cons, x, node, err)
				continue
			}
			if k == 0 {
				first = got
			} else if !bytes.Equal(first, got) {
				res.failf("%s: replicas of %s diverge: %x at node %d", cl.cons, x, got, node)
			}
		}
	}
}

// discard closes the current episode's clusters unchecked.
func (ch *chaos) discard() {
	for i := range ch.clusters {
		ch.clusters[i].c.Close()
	}
	ch.clusters, ch.inEp = nil, 0
}
