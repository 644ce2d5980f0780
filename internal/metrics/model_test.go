package metrics

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

// refCollector is the map-based, mutex-guarded collector this package
// had before the lock-free one, kept as the model the property test
// compares against.
type refCollector struct {
	msgs, ctrlBytes, dataBytes int64
	touch                      map[int]map[string]bool
	perKind                    map[string]int64
	faults                     map[string]int64

	delayN       int64
	delaySum     float64
	delayMax     uint64
	delayBuckets [65]int64
}

func newRefCollector() *refCollector {
	r := &refCollector{}
	r.Reset()
	return r
}

func (r *refCollector) RecordMessage(kind string, from, to int, ctrlBytes, dataBytes int, vars []string) {
	r.msgs++
	r.ctrlBytes += int64(ctrlBytes)
	r.dataBytes += int64(dataBytes)
	r.perKind[kind]++
	for _, node := range []int{from, to} {
		m := r.touch[node]
		if m == nil {
			m = make(map[string]bool)
			r.touch[node] = m
		}
		for _, v := range vars {
			m[v] = true
		}
	}
}

func (r *refCollector) RecordDelay(ticks uint64) {
	r.delayN++
	r.delaySum += float64(ticks)
	if ticks > r.delayMax {
		r.delayMax = ticks
	}
	r.delayBuckets[bits.Len64(ticks)]++
}

func (r *refCollector) RecordFault(kind string) {
	if r.faults == nil {
		r.faults = make(map[string]int64)
	}
	r.faults[kind]++
}

func (r *refCollector) Touched(node int, x string) bool { return r.touch[node][x] }

func (r *refCollector) Snapshot() Stats {
	s := Stats{
		Msgs: r.msgs, CtrlBytes: r.ctrlBytes, DataBytes: r.dataBytes,
		PerKind: make(map[string]int64, len(r.perKind)),
		Touch:   make(map[int][]string, len(r.touch)),
	}
	if r.delayN > 0 {
		s.Delay = DelayStats{Count: r.delayN, MeanTicks: r.delaySum / float64(r.delayN), MaxTicks: r.delayMax}
		top := 0
		for i, n := range r.delayBuckets {
			if n > 0 {
				top = i
			}
		}
		s.Delay.Buckets = append([]int64(nil), r.delayBuckets[:top+1]...)
	}
	for k, v := range r.perKind {
		s.PerKind[k] = v
	}
	if len(r.faults) > 0 {
		s.Faults = make(map[string]int64, len(r.faults))
		for k, v := range r.faults {
			s.Faults[k] = v
		}
	}
	for node, vars := range r.touch {
		list := make([]string, 0, len(vars))
		for v := range vars {
			list = append(list, v)
		}
		sort.Strings(list)
		s.Touch[node] = list
	}
	return s
}

func (r *refCollector) Reset() {
	*r = refCollector{touch: make(map[int]map[string]bool), perKind: make(map[string]int64)}
}

// TestModelEquivalence drives the collector and the reference model
// with the same seeded random call sequences and requires identical
// snapshots and touch answers throughout.
func TestModelEquivalence(t *testing.T) {
	cases := []struct {
		name      string
		vars      int   // size of the name universe
		reserve   int   // how many of the names Reserve is told about (0: no Reserve)
		zeroValue bool  // var Collector instead of NewCollector
		nodes     []int // node ids in use
		steps     int
	}{
		{"lazy-small", 10, 0, false, []int{0, 1, 2, 3}, 3000},
		{"zero-value", 10, 0, true, []int{0, 1, 2}, 1500},
		{"reserved", 64, 64, false, []int{0, 1, 2, 3, 4, 5, 6, 7}, 4000},
		{"half-reserved-over-64", 200, 100, false, []int{0, 1, 2, 3}, 6000},
		{"sparse-nodes", 70, 0, false, []int{0, 3, 17, 300, 5000}, 4000},
		{"over-4096-vars", 5000, 4500, false, []int{0, 1, 2, 9}, 20000},
	}
	kinds := []string{"upd", "ack", "rel.ack", "cfg"}
	faults := []string{"drop", "dup", "partition", "crash"}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				names := make([]string, tc.vars)
				for i := range names {
					names[i] = fmt.Sprintf("v%d", i)
				}
				rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
				c := NewCollector()
				if tc.zeroValue {
					c = new(Collector)
				}
				if tc.reserve > 0 {
					c.Reserve(len(tc.nodes), names[:tc.reserve])
				}
				ref := newRefCollector()
				node := func() int { return tc.nodes[rng.Intn(len(tc.nodes))] }
				compare := func(step int) {
					t.Helper()
					if got, want := c.Snapshot(), ref.Snapshot(); !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d step %d: snapshot\n got %#v\nwant %#v", seed, step, got, want)
					}
				}
				for step := 0; step < tc.steps; step++ {
					switch p := rng.Intn(1000); {
					case p < 900:
						var vars []string // nil one time in ten
						if n := rng.Intn(10); n > 0 {
							vars = make([]string, 0, 3)
							for k := 0; k < 1+n%3; k++ {
								vars = append(vars, names[rng.Intn(len(names))])
							}
						}
						kind, from, to := kinds[rng.Intn(len(kinds))], node(), node()
						ctrl, data := rng.Intn(100), rng.Intn(1000)
						c.RecordMessage(kind, from, to, ctrl, data, vars)
						ref.RecordMessage(kind, from, to, ctrl, data, vars)
					case p < 940:
						ticks := uint64(rng.Int63n(1 << uint(1+rng.Intn(40))))
						c.RecordDelay(ticks)
						ref.RecordDelay(ticks)
					case p < 960:
						f := faults[rng.Intn(len(faults))]
						c.RecordFault(f)
						ref.RecordFault(f)
					case p < 990:
						n, x := node(), names[rng.Intn(len(names))]
						if rng.Intn(8) == 0 {
							n, x = n+1, "never-recorded"
						}
						if got, want := c.Touched(n, x), ref.Touched(n, x); got != want {
							t.Fatalf("seed %d step %d: Touched(%d, %s) = %v, want %v", seed, step, n, x, got, want)
						}
					case p < 997:
						compare(step)
					default:
						c.Reset()
						ref.Reset()
						compare(step)
					}
				}
				compare(tc.steps)
			}
		})
	}
}

// TestConcurrentFirstTouches has eight goroutines first-touch
// overlapping (node, variable) pairs — interning names and kinds,
// creating shards and growing bitsets as they go — while another loops
// Snapshot; afterwards every count and every touch bit must be there.
// Run with -race.
func TestConcurrentFirstTouches(t *testing.T) {
	const workers, nodes, vars, rounds = 8, 12, 300, 3
	names := make([]string, vars)
	for i := range names {
		names[i] = fmt.Sprintf("v%d", i)
	}
	var c Collector
	stop := make(chan struct{})
	var snaps sync.WaitGroup
	snaps.Add(1)
	go func() {
		defer snaps.Done()
		var last int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := c.Snapshot()
			if s.Msgs < last {
				t.Errorf("Msgs went back from %d to %d", last, s.Msgs)
			}
			last = s.Msgs
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			kind := fmt.Sprintf("k%d", g%3)
			for r := 0; r < rounds; r++ {
				for v := 0; v < vars; v++ {
					// Worker g sends from node g…g+4 round-robin, so every
					// pair is first-touched by several workers at once.
					from := (g + v) % nodes
					c.RecordMessage(kind, from, (from+1)%nodes, 2, 3, names[v:v+1])
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	snaps.Wait()

	s := c.Snapshot()
	if want := int64(workers * rounds * vars); s.Msgs != want || s.CtrlBytes != 2*want || s.DataBytes != 3*want {
		t.Fatalf("lost updates: %v, want %d messages", s, want)
	}
	var perKind int64
	for _, n := range s.PerKind {
		perKind += n
	}
	if perKind != s.Msgs || len(s.PerKind) != 3 {
		t.Fatalf("PerKind %v does not add up to %d messages of 3 kinds", s.PerKind, s.Msgs)
	}
	want := make(map[int]map[string]bool)
	for g := 0; g < workers; g++ {
		for v := 0; v < vars; v++ {
			for _, n := range []int{(g + v) % nodes, (g + v + 1) % nodes} {
				if !c.Touched(n, names[v]) {
					t.Fatalf("touch bit (%d, %s) lost", n, names[v])
				}
				if want[n] == nil {
					want[n] = make(map[string]bool)
				}
				want[n][names[v]] = true
			}
		}
	}
	for n, set := range want {
		if len(s.Touch[n]) != len(set) {
			t.Errorf("node %d: snapshot lists %d variables, want %d", n, len(s.Touch[n]), len(set))
		}
	}
}

// TestRecordMessageSteadyStateAllocs pins the hot path at zero
// allocations once a (kind, nodes, variable) combination has been seen,
// with and without Reserve.
func TestRecordMessageSteadyStateAllocs(t *testing.T) {
	vars, multi := []string{"x1"}, []string{"x1", "x2", "x3"}
	reserved := NewCollector()
	reserved.Reserve(4, multi)
	for name, c := range map[string]*Collector{"lazy": NewCollector(), "reserved": reserved} {
		record := func() {
			c.RecordMessage("upd", 0, 1, 12, 8, vars)
			c.RecordMessage("upd", 1, 2, 12, 8, multi)
			c.RecordMessage("ack", 2, 0, 4, 0, nil)
		}
		for i := 0; i < 8; i++ { // past the lazy path's publish threshold
			record()
		}
		if avg := testing.AllocsPerRun(1000, record); avg != 0 {
			t.Errorf("%s: steady-state RecordMessage allocates %.2f per three calls, want 0", name, avg)
		}
	}
}

// TestLazyInterningIsNotQuadratic interns 10⁵ names nobody announced,
// one message each, and then once more (the pass that publishes them).
// Copying the name table per insert would move 5·10⁹ entries — minutes;
// the amortised scheme takes a fraction of a second, so a generous
// wall-clock bound tells the two apart without flaking.
func TestLazyInterningIsNotQuadratic(t *testing.T) {
	const n = 100_000
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("name-%d", i)
	}
	c := NewCollector()
	start := time.Now()
	for pass := 0; pass < 2; pass++ {
		for i := range names {
			c.RecordMessage("upd", 0, 1, 1, 1, names[i:i+1])
		}
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("interning %d names lazily took %v", n, d)
	}
	if !c.Touched(1, names[n-1]) || !c.Touched(0, names[0]) {
		t.Fatal("touch bits lost")
	}
	if m := c.varIDs.Load(); m == nil || len(*m) != n || len(c.dirty) != 0 {
		t.Fatalf("after a second pass %d of %d names are still behind the mutex", len(c.dirty), n)
	}
	if s := c.Snapshot(); s.Msgs != 2*n || len(s.Touch[0]) != n {
		t.Fatalf("snapshot: %d messages, %d names on node 0", s.Msgs, len(s.Touch[0]))
	}
}
