package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"partialdsm"
	"partialdsm/internal/check"
	"partialdsm/internal/mcs"
	"partialdsm/internal/metrics"
	"partialdsm/internal/model"
	"partialdsm/internal/netsim"
	"partialdsm/internal/sharegraph"
	"partialdsm/internal/trace"
	"partialdsm/internal/workload"
)

// A probe times one layer in isolation by calling its public functions
// directly, and validates what the layer produced. Probes exist so a
// change to one layer shows up under that layer's name before anyone
// argues about an end-to-end number.
type probe struct {
	name, unit string
	run        func(pc *probeCtx) (float64, error)
}

// probeCtx carries the seed, the iteration scale, and inputs several
// probes share.
type probeCtx struct {
	seed  int64
	scale float64
	// causal is a decoded ~1000-operation causal-partial execution, the
	// input of the causal-witness and trace-codec probes.
	causal     *trace.Trace
	causalBlob []byte
	pramLogs   [][]check.Event
}

func (pc *probeCtx) iters(n int) int {
	if s := int(float64(n) * pc.scale); s > 1 {
		return s
	}
	return 1
}

// perIter times n calls of f and returns nanoseconds per call.
func perIter(n int, f func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

// sink keeps results the compiler could otherwise discard.
var sink int

// Shape of the transport probes: pram_storm's round, 64 multicasts of
// fan-out 3 and then Quiesce.
const (
	probeNodes  = 16
	probeFanout = 3
	probeBurst  = 64
)

// sendProbe pushes bursts through a transport and returns nanoseconds
// per message from Send to the handler having run.
func sendProbe(net netsim.Transport, bursts int, col *metrics.Collector) (float64, error) {
	var got atomic.Int64
	for i := 0; i < probeNodes; i++ {
		net.SetHandler(i, func(netsim.Message) { got.Add(1) })
	}
	payload := make([]byte, 20)
	vars := []string{"x1"}
	sent := 0
	t0 := time.Now()
	for b := 0; b < bursts; b++ {
		for k := 0; k < probeBurst; k++ {
			from := (b + k) % probeNodes
			for d := 1; d <= probeFanout; d++ {
				net.Send(netsim.Message{From: from, To: (from + d) % probeNodes, Kind: "upd",
					Payload: payload, CtrlBytes: 12, DataBytes: 8, Vars: vars})
				sent++
			}
		}
		net.Quiesce()
	}
	elapsed := time.Since(t0)
	net.Close()
	if got.Load() != int64(sent) {
		return 0, fmt.Errorf("delivered %d of %d messages", got.Load(), sent)
	}
	if col != nil {
		if s := col.Snapshot(); s.Msgs != int64(sent) {
			return 0, fmt.Errorf("collector counted %d of %d messages", s.Msgs, sent)
		}
	}
	return float64(elapsed) / float64(sent), nil
}

func vnetOptions(seed int64) netsim.Options {
	return netsim.Options{FIFO: true, VirtualLatency: true, MaxLatency: virtualLatency, Seed: seed}
}

// pramRecord is one PRAM update record as prampart stages it.
func pramRecord(enc *mcs.Enc, wseq uint32, val []byte) {
	enc.U32(wseq).VarVal(1, val)
}

// outboxProbe stages n records through an outbox of the given batch
// size and returns nanoseconds per staged record.
func outboxProbe(n, batch int) (float64, error) {
	net := netsim.NewSharded(probeNodes, netsim.Options{FIFO: true})
	var records atomic.Int64
	for i := 0; i < probeNodes; i++ {
		net.SetHandler(i, func(m netsim.Message) {
			d := mcs.DecOf(m.Payload)
			records.Add(int64(d.U32()))
			mcs.RecycleFrame(m)
		})
	}
	out := mcs.NewOutbox(net, 0, "upd", batch)
	dests, vars, val := []int{1, 2, 3}, []string{"x1"}, make([]byte, 8)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		enc := out.Stage()
		pramRecord(enc, uint32(i), val)
		out.Emit(dests, vars, enc.Len()-len(val), len(val))
		if i%probeBurst == probeBurst-1 {
			out.Flush()
			net.Quiesce()
		}
	}
	out.Flush()
	net.Quiesce()
	elapsed := time.Since(t0)
	net.Close()
	if want := int64(n * len(dests)); records.Load() != want {
		return 0, fmt.Errorf("receivers decoded %d of %d records", records.Load(), want)
	}
	return float64(elapsed) / float64(n), nil
}

// causalTrace runs a small causal-partial cluster once and decodes its
// exported trace.
func (pc *probeCtx) causalTrace() error {
	if pc.causal != nil {
		return nil
	}
	cfg := probeCausalConfig(pc.seed)
	idx := varIndex(auditVars)
	gen := workload.NewZipfMix(pc.seed, auditNodes, auditVars, 1.1, 0.5)
	sched := genSchedule(gen, pc.iters(1000), idx, cliquesOf(cfg.Placement, idx), 0, 0)
	c, err := partialdsm.New(cfg)
	if err != nil {
		return err
	}
	defer c.Close()
	b := bind(c, auditVars)
	var val [8]byte
	for i, d := range sched.draws {
		h, x := b.handles[d.node], b.names[d.v]
		if d.read {
			_, err = h.Get(x)
		} else {
			binary.BigEndian.PutUint64(val[:], uint64(i+1))
			err = h.Put(x, val[:])
		}
		if err != nil {
			return err
		}
	}
	if pc.causalBlob, err = c.ExportTrace(); err != nil {
		return err
	}
	pc.causal, err = trace.Decode(bytes.NewReader(pc.causalBlob))
	return err
}

// syntheticPRAMLogs builds per-node logs that satisfy the PRAM witness:
// every node applies every writer's writes in order and reads them
// back.
func (pc *probeCtx) syntheticPRAMLogs() [][]check.Event {
	if pc.pramLogs != nil {
		return pc.pramLogs
	}
	const procs = 8
	perNode := pc.iters(10000) / procs
	pc.pramLogs = make([][]check.Event, procs)
	for p := 0; p < procs; p++ {
		for k := 0; k < perNode; k++ {
			writer, val := k%procs, model.IntValue(int64(k%procs*1_000_000+k/procs))
			pc.pramLogs[p] = append(pc.pramLogs[p],
				check.Event{Writer: writer, WSeq: k / procs, Var: "x", Val: val},
				check.Event{IsRead: true, Var: "x", Val: val})
		}
	}
	return pc.pramLogs
}

func countEvents(logs [][]check.Event) int {
	n := 0
	for _, l := range logs {
		n += len(l)
	}
	return n
}

// bigPlacement is the capacity-probe share graph: 64 nodes, 4096
// variables (at full scale), each on 4 consecutive nodes.
func (pc *probeCtx) bigPlacement() *sharegraph.Placement {
	return sharegraph.FromLists(ringPlacement(64, pc.bigVars(), 4).Lists())
}

func (pc *probeCtx) bigVars() int {
	if v := pc.iters(4096); v > 64 {
		return v
	}
	return 64
}

var probes = []probe{
	{"netsim.sharded.send_ns", "ns", func(pc *probeCtx) (float64, error) {
		return sendProbe(netsim.NewSharded(probeNodes, netsim.Options{FIFO: true}), pc.iters(1500), nil)
	}},
	{"netsim.sharded.send_metrics_ns", "ns", func(pc *probeCtx) (float64, error) {
		col := metrics.NewCollector()
		return sendProbe(netsim.NewSharded(probeNodes, netsim.Options{FIFO: true, Metrics: col}), pc.iters(1500), col)
	}},
	{"netsim.vnet.send_ns", "ns", func(pc *probeCtx) (float64, error) {
		return sendProbe(netsim.NewSharded(probeNodes, vnetOptions(pc.seed)), pc.iters(400), nil)
	}},
	{"netsim.reliable.send_ns", "ns", func(pc *probeCtx) (float64, error) {
		inner := netsim.NewSharded(probeNodes, vnetOptions(pc.seed))
		return sendProbe(netsim.NewReliable(inner, netsim.ReliableOptions{}), pc.iters(200), nil)
	}},
	{"netsim.quiesce_idle_ns", "ns", func(pc *probeCtx) (float64, error) {
		net := netsim.NewSharded(probeNodes, netsim.Options{FIFO: true})
		defer net.Close()
		return perIter(pc.iters(200000), func(int) { net.Quiesce() }), nil
	}},
	{"metrics.record_ns", "ns", func(pc *probeCtx) (float64, error) {
		col, vars, n := metrics.NewCollector(), []string{"x1"}, pc.iters(1000000)
		ns := perIter(n, func(i int) { col.RecordMessage("upd", i%probeNodes, (i+1)%probeNodes, 12, 8, vars) })
		if s := col.Snapshot(); s.Msgs != int64(n) || s.CtrlBytes != int64(12*n) {
			return 0, fmt.Errorf("collector counted %d msgs, %d control bytes for %d records", s.Msgs, s.CtrlBytes, n)
		}
		return ns, nil
	}},
	{"metrics.snapshot_us", "us", func(pc *probeCtx) (float64, error) {
		col := metrics.NewCollector()
		names := workload.VarNames(stormVars)
		for node := 0; node < stormNodes; node++ {
			for _, x := range names {
				col.RecordMessage("upd", node, (node+1)%stormNodes, 12, 8, []string{x})
			}
		}
		var s metrics.Stats
		ns := perIter(pc.iters(300), func(int) { s = col.Snapshot() })
		if len(s.Touch) != stormNodes || len(s.Touch[0]) != stormVars {
			return 0, fmt.Errorf("snapshot touch matrix is %d × %d", len(s.Touch), len(s.Touch[0]))
		}
		return ns / 1e3, nil
	}},
	{"wire.enc_ns", "ns", func(pc *probeCtx) (float64, error) {
		var enc mcs.Enc
		val := make([]byte, 8)
		ns := perIter(pc.iters(5000000), func(i int) {
			enc.Reset()
			pramRecord(&enc, uint32(i), val)
		})
		if enc.Len() != 16 {
			return 0, fmt.Errorf("PRAM update record is %d bytes, want 16", enc.Len())
		}
		return ns, nil
	}},
	{"wire.dec_ns", "ns", func(pc *probeCtx) (float64, error) {
		var enc mcs.Enc
		pramRecord(&enc, 7, []byte{1, 2, 3, 4, 5, 6, 7, 8})
		buf := enc.Bytes()
		var bad int
		ns := perIter(pc.iters(5000000), func(int) {
			d := mcs.DecOf(buf)
			wseq := d.U32()
			xi, v := d.VarVal()
			if wseq != 7 || xi != 1 || len(v) != 8 || d.Err() != nil {
				bad++
			}
		})
		if bad != 0 {
			return 0, fmt.Errorf("%d records decoded wrongly", bad)
		}
		return ns, nil
	}},
	{"wire.enc_deps_ns", "ns", func(pc *probeCtx) (float64, error) {
		var enc mcs.Enc
		deps := make([]uint32, 64)
		for i := range deps {
			deps[i] = uint32(i * 3)
		}
		ns := perIter(pc.iters(2000000), func(int) {
			enc.Reset()
			enc.U32Slice(deps)
		})
		d := mcs.DecOf(enc.Bytes())
		if got := d.U32Slice(); len(got) != len(deps) || got[63] != deps[63] || d.Err() != nil {
			return 0, fmt.Errorf("dep list did not round-trip")
		}
		return ns, nil
	}},
	{"outbox.emit_ns", "ns", func(pc *probeCtx) (float64, error) { return outboxProbe(pc.iters(200000), 1) }},
	{"outbox.coalesce_ns", "ns", func(pc *probeCtx) (float64, error) { return outboxProbe(pc.iters(400000), 16) }},
	{"pool.get_put_ns", "ns", func(pc *probeCtx) (float64, error) {
		ns := perIter(pc.iters(5000000), func(int) {
			b := mcs.GetPayload()
			b = append(b, 1, 2, 3, 4, 5, 6, 7, 8)
			mcs.PutPayload(b)
		})
		if b := mcs.GetPayload(); len(b) != 0 {
			return 0, fmt.Errorf("pooled payload came back with length %d", len(b))
		}
		return ns, nil
	}},
	{"recorder.write_ns", "ns", func(pc *probeCtx) (float64, error) {
		rec, val, n := mcs.NewRecorder(8), make([]byte, 8), pc.iters(400000)
		ns := perIter(n, func(i int) { sink = rec.RecordWrite(i%8, "x1", val) })
		if rec.OpCount() != n {
			return 0, fmt.Errorf("recorder holds %d of %d writes", rec.OpCount(), n)
		}
		return ns, nil
	}},
	{"recorder.apply_ns", "ns", func(pc *probeCtx) (float64, error) {
		rec, val, n := mcs.NewRecorder(8), make([]byte, 8), pc.iters(400000)
		ns := perIter(n, func(i int) { rec.RecordApply(i%8, (i+1)%8, i/8, "x1", val) })
		if got := countEvents(rec.Logs()); got != n {
			return 0, fmt.Errorf("recorder logged %d of %d applies", got, n)
		}
		return ns, nil
	}},
	{"recorder.history_ms", "ms", func(pc *probeCtx) (float64, error) {
		const procs = 8
		rec, names, n := mcs.NewRecorder(procs), workload.VarNames(procs), pc.iters(8000)
		var val [8]byte
		for i := 0; i < n; i++ {
			p := i % procs
			if i%(2*procs) < procs {
				binary.BigEndian.PutUint64(val[:], uint64(i+1))
				rec.RecordWrite(p, names[p], val[:])
			} else {
				// Reads return the node's own latest write.
				binary.BigEndian.PutUint64(val[:], uint64(i+1-procs))
				rec.RecordRead(p, names[p], val[:])
			}
		}
		var h *model.History
		var err error
		ns := perIter(pc.iters(20), func(int) { h, err = rec.History() })
		if err != nil {
			return 0, err
		}
		if h.Len() != n {
			return 0, fmt.Errorf("history holds %d of %d operations", h.Len(), n)
		}
		return ns / 1e6, nil
	}},
	{"sharegraph.index_build_ms", "ms", func(pc *probeCtx) (float64, error) {
		pl := pc.bigPlacement()
		var total time.Duration
		n := pc.iters(5)
		for i := 0; i < n; i++ {
			fresh := pl.Clone()
			t0 := time.Now()
			ix := fresh.Index()
			total += time.Since(t0)
			if ix.NumVars() != pc.bigVars() || len(ix.Clique(0)) != 4 {
				return 0, fmt.Errorf("index has %d variables, |C(x0)| = %d", ix.NumVars(), len(ix.Clique(0)))
			}
		}
		return total.Seconds() * 1e3 / float64(n), nil
	}},
	{"sharegraph.rebind_ms", "ms", func(pc *probeCtx) (float64, error) {
		pl := pc.bigPlacement()
		ix := pl.Index()
		// One variable moved: x0 gains a replica on node 32.
		next := pl.Clone().Assign(32, workload.VarName(0))
		var nix *sharegraph.Index
		var err error
		ns := perIter(pc.iters(5), func(int) { nix, err = ix.Rebind(next, 1) })
		if err != nil {
			return 0, err
		}
		if len(nix.Clique(ix.ID(workload.VarName(0)))) != 5 || nix.Epoch() != 1 {
			return 0, fmt.Errorf("rebound index did not pick up the moved variable")
		}
		return ns / 1e6, nil
	}},
	{"sharegraph.xrelevant_ms", "ms", func(pc *probeCtx) (float64, error) {
		// proto_audit's hoop-saturated ring: every variable's relevant set.
		pl := sharegraph.FromLists(ringPlacement(auditNodes, auditVars, 3).Lists())
		var bad int
		ns := perIter(pc.iters(20), func(int) {
			for _, x := range pl.Vars() {
				if len(pl.XRelevant(x)) < len(pl.Clique(x)) {
					bad++
				}
			}
		})
		if bad != 0 {
			return 0, fmt.Errorf("%d relevant sets smaller than their clique", bad)
		}
		return ns / 1e6, nil
	}},
	{"check.witness_pram_ns_per_event", "ns", func(pc *probeCtx) (float64, error) {
		logs := pc.syntheticPRAMLogs()
		var err error
		ns := perIter(pc.iters(50), func(int) {
			if e := check.WitnessPRAM(len(logs), logs); e != nil {
				err = e
			}
		})
		return ns / float64(countEvents(logs)), err
	}},
	{"check.witness_causal_ms", "ms", func(pc *probeCtx) (float64, error) {
		if err := pc.causalTrace(); err != nil {
			return 0, err
		}
		h, err := pc.causal.HistoryModel()
		if err != nil {
			return 0, err
		}
		logs := pc.causal.EventLogs()
		ns := perIter(pc.iters(5), func(int) {
			if e := check.WitnessCausal(h, logs); e != nil {
				err = e
			}
		})
		return ns / 1e6, err
	}},
	{"check.monitor_feed_ns", "ns", func(pc *probeCtx) (float64, error) {
		logs := pc.syntheticPRAMLogs()
		var total time.Duration
		n := pc.iters(20)
		for i := 0; i < n; i++ {
			m := check.NewPRAMMonitor(len(logs))
			t0 := time.Now()
			for node, l := range logs {
				for _, e := range l {
					_ = m.Feed(node, e) // the first violation is sticky and read below
				}
			}
			total += time.Since(t0)
			if err := m.Err(); err != nil {
				return 0, err
			}
		}
		return float64(total) / float64(n*countEvents(logs)), nil
	}},
	{"trace.encode_ms", "ms", func(pc *probeCtx) (float64, error) {
		if err := pc.causalTrace(); err != nil {
			return 0, err
		}
		h, err := pc.causal.HistoryModel()
		if err != nil {
			return 0, err
		}
		logs := pc.causal.EventLogs()
		var blob []byte
		ns := perIter(pc.iters(20), func(int) {
			blob, err = trace.Encode(pc.causal.Consistency, pc.causal.Placement, h, logs)
		})
		if err != nil {
			return 0, err
		}
		back, err := trace.Decode(bytes.NewReader(blob))
		if err != nil {
			return 0, err
		}
		if got := countEvents(back.EventLogs()); got != countEvents(logs) {
			return 0, fmt.Errorf("re-encoded trace holds %d of %d events", got, countEvents(logs))
		}
		return ns / 1e6, nil
	}},
	{"trace.decode_verify_ms", "ms", func(pc *probeCtx) (float64, error) {
		if err := pc.causalTrace(); err != nil {
			return 0, err
		}
		var err error
		ns := perIter(pc.iters(5), func(int) {
			t, e := trace.Decode(bytes.NewReader(pc.causalBlob))
			if e == nil {
				e = t.Verify()
			}
			if e != nil {
				err = e
			}
		})
		return ns / 1e6, err
	}},
	{"workload.zipf_next_ns", "ns", func(pc *probeCtx) (float64, error) {
		gen := workload.NewZipfMix(pc.seed, readsNodes, readsVars, 1.1, 0.95)
		reads, n := 0, pc.iters(1000000)
		ns := perIter(n, func(int) {
			if gen.Next().Read {
				reads++
			}
		})
		if share := float64(reads) / float64(n); n >= 10000 && (share < 0.93 || share > 0.97) {
			return 0, fmt.Errorf("generator drew %.3f reads, want 0.95", share)
		}
		return ns, nil
	}},
}

// runProbes runs every probe; a probe whose output fails its own
// validation is a failed check.
func runProbes(e *env, vals map[string]float64, total *result) {
	pc := &probeCtx{seed: e.seed, scale: e.sz.probeScale}
	for _, p := range probes {
		v, err := p.run(pc)
		if err != nil {
			total.failf("probe %s: %v", p.name, err)
		}
		vals[p.name] = v
	}
}
