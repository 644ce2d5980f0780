package main

import (
	"partialdsm"
	"partialdsm/internal/workload"
)

// draw is one pre-generated access: which node issues it, on which
// variable, read or write. Four bytes, so even the million-entry
// schedule of zipf_reads streams through the cache instead of evicting
// the DSM's own working set.
type draw struct {
	node uint8
	read bool
	v    uint16
}

// schedule is an access stream generated once in set-up and replayed
// cyclically in the timed region: drawing from workload.ZipfMix inside
// the loop would spend a quarter of a read-mostly run in the generator.
// hash identifies the stream, so two runs can prove they replayed the
// same inputs.
type schedule struct {
	draws []draw
	hash  uint64
}

// cliquesOf returns C(x) for every variable index, members ascending.
func cliquesOf(pl *partialdsm.Placement, varIdx map[string]int) [][]int {
	cliques := make([][]int, len(varIdx))
	for node, vars := range pl.Lists() {
		for _, x := range vars {
			cliques[varIdx[x]] = append(cliques[varIdx[x]], node)
		}
	}
	return cliques
}

func varIndex(vars int) map[string]int {
	idx := make(map[string]int, vars)
	for v, x := range workload.VarNames(vars) {
		idx[x] = v
	}
	return idx
}

// genSchedule draws n accesses. With cliques non-nil a drawn node
// outside C(x) is re-homed to C(x)[node mod |C(x)|], so no replayed
// operation is denied; with cliques nil the draw stands (denials are
// chaos_adaptive's signal to the placement policy). With phaseLen > 0
// the generator's hot slices rotate by `rotate` variables before every
// phaseLen-th draw.
func genSchedule(gen *workload.ZipfMix, n int, varIdx map[string]int, cliques [][]int, phaseLen, rotate int) schedule {
	s := schedule{draws: make([]draw, n), hash: 14695981039346656037}
	for i := range s.draws {
		if phaseLen > 0 && i%phaseLen == 0 {
			gen.Rotate(rotate)
		}
		a := gen.Next()
		v := varIdx[a.Var]
		node := a.Node
		if cliques != nil {
			cx := cliques[v]
			member := false
			for _, p := range cx {
				member = member || p == node
			}
			if !member {
				node = cx[node%len(cx)]
			}
		}
		d := draw{node: uint8(node), read: a.Read, v: uint16(v)}
		s.draws[i] = d
		rd := byte(0)
		if d.read {
			rd = 1
		}
		for _, b := range [4]byte{d.node, rd, byte(d.v), byte(d.v >> 8)} {
			s.hash = (s.hash ^ uint64(b)) * 1099511628211
		}
	}
	return s
}

// binding resolves a schedule's node and variable indices against one
// cluster: a replayed draw costs two table loads, no map and no
// formatting.
type binding struct {
	handles []*partialdsm.NodeHandle
	names   []string
}

func bind(c *partialdsm.Cluster, vars int) binding {
	b := binding{handles: make([]*partialdsm.NodeHandle, c.NumNodes()), names: workload.VarNames(vars)}
	for i := range b.handles {
		b.handles[i] = c.Node(i)
	}
	return b
}
