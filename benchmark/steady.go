package main

import (
	"encoding/binary"
	"errors"
	"fmt"

	"partialdsm"
	"partialdsm/internal/mcs"
	"partialdsm/internal/workload"
)

// steadyShape parameterizes the two steady-state workloads, which
// share one driver: a single long-lived PRAM cluster replaying rounds
// of blockOps operations followed by Quiesce.
type steadyShape struct {
	config      func(seed int64) partialdsm.Config
	nodes, vars int
	skew        float64
	readFrac    float64
	valueLen    int
	schedLen    int
	blockOps    int
	warmRounds  int
}

func stormShape(sz sizing) steadyShape {
	return steadyShape{
		config: stormConfig, nodes: stormNodes, vars: stormVars,
		skew: 1.1, readFrac: 0, valueLen: 8,
		schedLen: sz.stormSched, blockOps: 64, warmRounds: sz.stormWarmRounds,
	}
}

func readsShape(sz sizing) steadyShape {
	return steadyShape{
		config: readsConfig, nodes: readsNodes, vars: readsVars,
		skew: 1.1, readFrac: 0.95, valueLen: readsValueLen,
		schedLen: sz.readsSched, blockOps: 1024, warmRounds: sz.readsWarmRounds,
	}
}

// steady is one set-up of a steady workload.
type steady struct {
	shapeOf func(sizing) steadyShape
	shape   steadyShape
	c       *partialdsm.Cluster
	pl      *partialdsm.Placement
	sched   schedule
	b       binding
	pos     int
	ctr     uint64 // every written value carries a unique counter
	val     []byte
	dst     []byte
	cliques [][]int
	// lastWrite[node*vars+v] is the counter of node's latest write to v.
	// PRAM applies each writer's updates in issue order, so once the
	// network is quiet every replica of v must hold the latest write of
	// one of v's writers — the final output check.
	lastWrite []uint64
	base      partialdsm.Stats
}

func (s *steady) setup(e *env) error {
	s.shape = s.shapeOf(e.sz)
	cfg := s.shape.config(e.seed)
	s.pl = cfg.Placement
	idx := varIndex(s.shape.vars)
	s.cliques = cliquesOf(s.pl, idx)
	gen := workload.NewZipfMix(e.seed, s.shape.nodes, s.shape.vars, s.shape.skew, s.shape.readFrac)
	s.sched = genSchedule(gen, s.shape.schedLen, idx, s.cliques, 0, 0)
	c, err := partialdsm.New(cfg)
	if err != nil {
		return err
	}
	s.c = c
	s.b = bind(c, s.shape.vars)
	s.val = make([]byte, s.shape.valueLen)
	s.dst = make([]byte, 0, s.shape.valueLen)
	s.lastWrite = make([]uint64, s.shape.nodes*s.shape.vars)
	var warm result
	for r := 0; r < s.shape.warmRounds; r++ {
		if !s.round(nil, &warm) {
			return fmt.Errorf("warm-up failed: %v", warm.checks)
		}
	}
	s.pos = 0
	s.base = c.Stats()
	return nil
}

func (s *steady) hash() uint64 { return s.sched.hash }

// round replays one block of operations and quiesces.
func (s *steady) round(tr *tracer, res *result) bool {
	tr.begin(spanRound)
	defer tr.end()
	draws := s.sched.draws
	var t int64
	if tr != nil {
		t = tr.now()
	}
	for k := 0; k < s.shape.blockOps; k++ {
		d := draws[s.pos]
		if s.pos++; s.pos == len(draws) {
			s.pos = 0
		}
		h, x := s.b.handles[d.node], s.b.names[d.v]
		var err error
		if d.read {
			s.dst, err = h.GetInto(x, s.dst[:0])
			if tr != nil {
				t = tr.leaf(spanGet, t)
			}
			if err == nil && !s.plausible(s.dst) {
				res.failf("node %d read %s = %x: not a value this run wrote", d.node, x, s.dst)
			}
		} else {
			s.ctr++
			binary.BigEndian.PutUint64(s.val, s.ctr)
			s.lastWrite[int(d.node)*s.shape.vars+int(d.v)] = s.ctr
			err = h.Put(x, s.val)
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
			res.failf("op on %s at node %d: %v", x, d.node, err)
			return false
		}
	}
	tr.begin(spanQuiesce)
	err := s.c.Quiesce()
	tr.end()
	if err != nil {
		res.failf("quiesce: %v", err)
		return false
	}
	return true
}

// plausible reports whether a read value is ⊥ or carries a counter
// this run has already issued.
func (s *steady) plausible(v []byte) bool {
	if len(v) != s.shape.valueLen {
		return string(v) == string(partialdsm.BottomValue())
	}
	return binary.BigEndian.Uint64(v) <= s.ctr
}

// step replays the whole schedule once, timing every round: stopping
// only at whole cycles keeps the simulated statistics of a seed exact
// however many cycles the time budget allows.
func (s *steady) step(tr *tracer, res *result) bool {
	rounds := len(s.sched.draws) / s.shape.blockOps
	for r := 0; r < rounds; r++ {
		t0 := nanotime()
		if !s.round(tr, res) {
			return false
		}
		res.round(0, nanotime()-t0)
	}
	return true
}

func (s *steady) finish(tr *tracer, res *result) {
	defer s.discard()
	tr.begin(spanStats)
	st := s.c.Stats()
	tr.end()
	res.addTraffic(s.base, st)
	res.touchPairs, res.ownPairs = touchPairs(st.Touch, replicaSets(s.pl))
	if err := s.c.VerifyEfficiency(); err != nil {
		res.failf("efficiency: %v", err)
	}
	if err := s.c.Err(); err != nil {
		res.failf("cluster fault: %v", err)
	}
	// Every replica must rest on the latest write of one of the
	// variable's writers.
	for v, cx := range s.cliques {
		x := s.b.names[v]
		for _, node := range cx {
			got, err := s.b.handles[node].Get(x)
			if err != nil {
				res.failf("final read of %s at node %d: %v", x, node, err)
				continue
			}
			ok, anyWrite := false, false
			for _, w := range cx {
				last := s.lastWrite[w*s.shape.vars+v]
				anyWrite = anyWrite || last != 0
				ok = ok || (last != 0 && len(got) == s.shape.valueLen && binary.BigEndian.Uint64(got) == last)
			}
			if !anyWrite {
				ok = string(got) == string(partialdsm.BottomValue())
			}
			if !ok {
				res.failf("node %d rests on %s = %x, which is no writer's latest write", node, x, got)
			}
		}
	}
}

func (s *steady) discard() {
	if s.c != nil {
		s.c.Close()
		s.c = nil
	}
}
