package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"partialdsm"
	"partialdsm/internal/mcs"
	"partialdsm/internal/trace"
	"partialdsm/internal/workload"
)

// auditGraph is one of proto_audit's two share graphs with its
// pre-generated access stream.
type auditGraph struct {
	name  string
	pl    *partialdsm.Placement
	holds []map[string]bool // replicaSets(pl)
	sched schedule
}

// protoLedger accumulates one protocol's row of the paper's table.
type protoLedger struct {
	ops                  int64
	run                  time.Duration // New through the last Quiesce
	witness              time.Duration
	msgs, ctrl           int64
	touchPairs, ownPairs int64
}

// audit is one set-up of proto_audit: every protocol on a hoop-saturated
// ring and on a hoop-free chain, a fresh traced cluster per episode,
// every verifier run on every episode. Episodes, not one long run,
// because the causal witness is super-quadratic in the history length
// and because this is how the E-suite and the tests use the library.
type audit struct {
	sz     sizing
	seed   int64
	graphs [2]auditGraph
	cycles int // completed schedule cycles, selects each cycle's slice
	// corrupt, when set, doctors an exported trace before it is decoded
	// and verified — the smoke test's proof that a failed verdict is
	// counted.
	corrupt func([]byte) []byte

	ledger   [8]protoLedger
	liveHeap uint64
	// Timed-wall shares of the verification layers.
	witness, efficiency, export, decodeVerify time.Duration
	delaySum                                  float64
	delayN                                    int64
}

func (a *audit) setup(e *env) error {
	a.sz, a.seed = e.sz, e.seed
	idx := varIndex(auditVars)
	a.graphs[0] = auditGraph{name: "ring3", pl: ringPlacement(auditNodes, auditVars, 3)}
	a.graphs[1] = auditGraph{name: "chain", pl: chainPlacement(auditNodes, auditVars)}
	for g := range a.graphs {
		gr := &a.graphs[g]
		gr.holds = replicaSets(gr.pl)
		gen := workload.NewZipfMix(e.seed+int64(g), auditNodes, auditVars, 1.1, 0.5)
		gr.sched = genSchedule(gen, a.sz.auditSched, idx, cliquesOf(gr.pl, idx), 0, 0)
	}
	var warm result
	var scratch audit = *a
	if !scratch.step(nil, &warm) {
		return fmt.Errorf("warm-up failed: %v", warm.checks)
	}
	return nil
}

func (a *audit) hash() uint64 { return a.graphs[0].sched.hash ^ a.graphs[1].sched.hash<<1 }

// step runs one episode of every protocol on each graph. Within a
// step all eight protocols replay the same slice of the graph's
// schedule, so their rows compare like for like.
func (a *audit) step(tr *tracer, res *result) bool {
	onChain := make(map[partialdsm.Consistency]int64) // pairs touched on the chain
	for ci, cons := range partialdsm.Consistencies {
		for g := range a.graphs {
			pairs, ok := a.episode(tr, res, ci, cons, g)
			if !ok {
				return false
			}
			if g == 1 {
				onChain[cons] = pairs
			}
		}
	}
	// E15's separation: on the hoop-free chain the hoop-aware protocol
	// informs strictly fewer (node, variable) pairs than the broadcast
	// one.
	if hoop, partial := onChain[partialdsm.CausalHoopAware], onChain[partialdsm.CausalPartial]; hoop >= partial {
		res.failf("chain: causal-hoop-aware touched %d pairs, causal-partial %d: want strictly fewer", hoop, partial)
	}
	a.cycles++
	return true
}

// episode runs one fresh cluster through its operations and every
// verifier, and returns the number of (node, variable) pairs touched.
func (a *audit) episode(tr *tracer, res *result, ci int, cons partialdsm.Consistency, g int) (int64, bool) {
	gr := &a.graphs[g]
	led := &a.ledger[ci]
	tr.begin(spanEpisode)
	defer tr.end()

	t0 := nanotime()
	tr.begin(spanNew)
	c, err := partialdsm.New(auditConfig(cons, gr.pl, a.seed+int64(a.cycles)))
	tr.end()
	if err != nil {
		res.failf("%s/%s: new: %v", cons, gr.name, err)
		return 0, false
	}
	closed := false
	closeCluster := func() {
		if !closed {
			closed = true
			tr.begin(spanClose)
			c.Close()
			tr.end()
		}
	}
	defer closeCluster()

	b := bind(c, auditVars)
	draws := gr.sched.draws
	pos := (a.cycles * a.sz.auditOps) % len(draws)
	var val [8]byte
	var ctr uint64
	for done := 0; done < a.sz.auditOps; {
		block := a.sz.auditBlock
		if rest := a.sz.auditOps - done; rest < block {
			block = rest
		}
		r0 := nanotime()
		tr.begin(spanRound)
		var t int64
		if tr != nil {
			t = tr.now()
		}
		for k := 0; k < block; k++ {
			d := draws[pos]
			if pos++; pos == len(draws) {
				pos = 0
			}
			h, x := b.handles[d.node], b.names[d.v]
			if d.read {
				_, err = h.Get(x)
				if tr != nil {
					t = tr.leaf(spanGet, t)
				}
			} else {
				ctr++
				binary.BigEndian.PutUint64(val[:], ctr)
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
				res.failf("%s/%s: op on %s at node %d: %v", cons, gr.name, x, d.node, err)
				tr.end()
				return 0, false
			}
		}
		tr.begin(spanQuiesce)
		err = c.Quiesce()
		tr.end()
		tr.end()
		if err != nil {
			res.failf("%s/%s: quiesce: %v", cons, gr.name, err)
			return 0, false
		}
		res.round(ci*len(a.graphs)+g, nanotime()-r0)
		done += block
	}
	t1 := nanotime()
	led.ops += int64(a.sz.auditOps)
	led.run += time.Duration(t1 - t0)

	tr.begin(spanVerifyWitness)
	err = c.VerifyWitness()
	tr.end()
	t2 := nanotime()
	led.witness += time.Duration(t2 - t1)
	a.witness += time.Duration(t2 - t1)
	if err != nil {
		res.failf("%s/%s: witness: %v", cons, gr.name, err)
	}

	tr.begin(spanVerifyEfficiency)
	effErr := c.VerifyEfficiency()
	relErr := c.VerifyRelevanceBound()
	tr.end()
	t3 := nanotime()
	a.efficiency += time.Duration(t3 - t2)
	if effErr != nil && (cons == partialdsm.PRAM || cons == partialdsm.Slow) {
		res.failf("%s/%s: efficiency: %v", cons, gr.name, effErr)
	}
	if relErr != nil && cons == partialdsm.CausalHoopAware {
		res.failf("%s/%s: relevance bound: %v", cons, gr.name, relErr)
	}

	tr.begin(spanExportTrace)
	blob, err := c.ExportTrace()
	tr.end()
	t4 := nanotime()
	a.export += time.Duration(t4 - t3)
	if err != nil {
		res.failf("%s/%s: export: %v", cons, gr.name, err)
	} else {
		if a.corrupt != nil {
			blob = a.corrupt(blob)
		}
		tr.begin(spanDecodeVerify)
		dec, err := trace.Decode(bytes.NewReader(blob))
		if err == nil {
			err = dec.Verify()
		}
		tr.end()
		a.decodeVerify += time.Duration(nanotime() - t4)
		if err != nil {
			res.failf("%s/%s: exported trace: %v", cons, gr.name, err)
		}
	}

	tr.begin(spanStats)
	st := c.Stats()
	tr.end()
	res.addTraffic(partialdsm.Stats{}, st)
	pairs, own := touchPairs(st.Touch, gr.holds)
	res.touchPairs += pairs
	res.ownPairs += own
	led.msgs += st.Msgs
	led.ctrl += st.CtrlBytes
	led.touchPairs += pairs
	led.ownPairs += own
	// The delay draws are a pure function of the seed; only the first
	// cycle feeds the mean so its value does not depend on how many
	// cycles the time budget allowed.
	if a.cycles == 0 {
		a.delaySum += float64(st.DelayMean) * float64(st.DelaySamples)
		a.delayN += st.DelaySamples
	}
	if err := c.Err(); err != nil {
		res.failf("%s/%s: cluster fault: %v", cons, gr.name, err)
	}
	// Live heap is the maximum over the first cycle's episodes, history
	// and logs still held: a forced collection per episode of every
	// cycle would be a tenth of the workload's wall time.
	if a.cycles == 0 {
		if live := liveHeap(); live > a.liveHeap {
			a.liveHeap = live
		}
	}
	closeCluster()
	return pairs, true
}

func (a *audit) finish(tr *tracer, res *result) {
	res.liveHeap = a.liveHeap
	for ci, cons := range partialdsm.Consistencies {
		led := &a.ledger[ci]
		p := "mcs." + string(cons) + "."
		res.setLayer(p+"ops_per_s", perSecond(led.ops, led.run))
		res.setLayer(p+"msgs_per_op", perOp(float64(led.msgs), led.ops))
		res.setLayer(p+"ctrl_bytes_per_op", perOp(float64(led.ctrl), led.ops))
		res.setLayer(p+"touch_ratio", perOp(float64(led.touchPairs), led.ownPairs))
		res.setLayer(p+"witness_ms", perOp(led.witness.Seconds()*1e3, int64(a.cycles*len(a.graphs))))
	}
	wall := res.wall.Seconds()
	res.setLayer("netsim.delay_mean_ticks", perOp(a.delaySum, a.delayN))
	res.setLayer("check.witness_share", a.witness.Seconds()/wall)
	res.setLayer("check.efficiency_ms", perOp(a.efficiency.Seconds()*1e3, int64(a.cycles*len(a.graphs)*len(partialdsm.Consistencies))))
	res.setLayer("trace.export_share", a.export.Seconds()/wall)
	res.setLayer("trace.decode_verify_share", a.decodeVerify.Seconds()/wall)
}

func (a *audit) discard() {}
