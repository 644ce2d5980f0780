// Allocation regression tests for the protocol hot paths: the paper's
// O(1)-control-information claim for the efficient protocols (§5,
// Theorem 2) is enforced here at the allocation level. PRAM and Slow
// reads must be exactly 0 allocs/op; every protocol's write path must
// stay within a small amortized budget, with the wait-free protocols
// (interned VarIDs + array replicas + coalescing outbox + recycled
// buffers) at ≤ 1 alloc per write.
package partialdsm

import (
	"fmt"
	"testing"
)

// allocCluster builds an untraced sharded-transport cluster, the
// configuration the allocation claims are made for (the sharded engine
// recycles its mailbox arrays; tracing is the recorder's business and
// inherently allocates).
func allocCluster(t *testing.T, cons Consistency, placement [][]string, batch int) *Cluster {
	t.Helper()
	c, err := New(Config{
		Consistency:    cons,
		PlacementLists: placement,
		Seed:           1,
		DisableTrace:   true,
		Transport:      TransportSharded,
		CoalesceBatch:  batch,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestReadZeroAllocs locks in the wait-free read path: a PRAM or Slow
// read is one interning lookup and one array load — 0 allocs/op.
func TestReadZeroAllocs(t *testing.T) {
	for _, cons := range []Consistency{PRAM, Slow} {
		t.Run(string(cons), func(t *testing.T) {
			c := allocCluster(t, cons, fullPlacement(4), 16)
			h := c.Node(0)
			if err := h.Write("x", 42); err != nil {
				t.Fatal(err)
			}
			c.Quiesce()
			avg := testing.AllocsPerRun(1000, func() {
				if _, err := h.Read("x"); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Errorf("%s Read allocates %.2f/op, want 0", cons, avg)
			}
		})
	}
}

// TestWriteAllocBudget enforces the amortized write-path budget per
// protocol. Each measured run is a coalescing batch worth of writes
// followed by a quiesce, so the cost of flushing frames, delivering
// them and recycling the buffers is all charged to the writes.
func TestWriteAllocBudget(t *testing.T) {
	const batch = 16
	budgets := []struct {
		cons   Consistency
		budget float64 // max allocs per write, amortized
	}{
		// Wait-free partial-replication protocols: the headline claim.
		// Steady state measures ~0.15 (occasional pool misses); the
		// budget leaves room for scheduler-dependent pool churn.
		{PRAM, 0.5},
		{Slow, 0.5},
		// Causal broadcast: vector clocks encode straight from the node
		// clock, same budget.
		{CausalFull, 0.5},
		// Causal partial replication pays Θ(n·v) dependency scanning but
		// still streams into pooled frames.
		{CausalPartial, 2},
		{CausalHoopAware, 2},
		// Blocking protocols: the shared multicast frame is refcounted
		// and recycled by its last receiver, so the remaining allocs are
		// sequencer bookkeeping (buffered-update map entries) and the
		// writer's blocking-wait machinery.
		{Sequential, 4.5},
		{CacheConsistency, 4.5},
		// Atomic registers: every payload is single-destination and
		// pooled on both sides of the round trip — zero steady state.
		{Atomic, 1},
	}
	for _, tc := range budgets {
		t.Run(string(tc.cons), func(t *testing.T) {
			c := allocCluster(t, tc.cons, fullPlacement(4), batch)
			h := c.Node(0)
			// Warm the pools and the transport's recycled arrays.
			for i := 0; i < 4*batch; i++ {
				if err := h.Write("x", int64(i)+1); err != nil {
					t.Fatal(err)
				}
			}
			c.Quiesce()
			v := int64(1000)
			avg := testing.AllocsPerRun(50, func() {
				for i := 0; i < batch; i++ {
					v++
					if err := h.Write("x", v); err != nil {
						t.Fatal(err)
					}
				}
				c.Quiesce()
			})
			perWrite := avg / batch
			if perWrite > tc.budget {
				t.Errorf("%s Write allocates %.2f/op amortized (%.1f per %d-write burst), budget %.1f",
					tc.cons, perWrite, avg, batch, tc.budget)
			}
		})
	}
}

// TestWriteAllocBudgetPartialPlacement repeats the PRAM budget on a
// partial-replication hoop topology: interning and peer tables must not
// degrade when cliques differ per variable.
func TestWriteAllocBudgetPartialPlacement(t *testing.T) {
	c := allocCluster(t, PRAM, hoopPlacement(), 16)
	h := c.Node(0)
	for i := 0; i < 64; i++ {
		if err := h.Write("x", int64(i)+1); err != nil {
			t.Fatal(err)
		}
		if err := h.Write("y", int64(i)+1); err != nil {
			t.Fatal(err)
		}
	}
	c.Quiesce()
	v := int64(1000)
	avg := testing.AllocsPerRun(50, func() {
		for i := 0; i < 8; i++ {
			v++
			if err := h.Write("x", v); err != nil {
				t.Fatal(err)
			}
			v++
			if err := h.Write("y", v); err != nil {
				t.Fatal(err)
			}
		}
		c.Quiesce()
	})
	if perWrite := avg / 16; perWrite > 1 {
		t.Errorf("PRAM Write on hoop placement allocates %.2f/op amortized, budget 1", perWrite)
	}
}

// TestUncoalescedWriteAllocBudget locks in the refcounted shared-frame
// path: with coalescing off, every multicast write shares one pooled
// frame recycled by its last receiver, and the sharded engine's run
// queue is a ring that stops growing at its high-water mark, so the
// uncoalesced protocols measure 0 allocations per write in steady
// state; the budget leaves room for one pool miss per burst.
func TestUncoalescedWriteAllocBudget(t *testing.T) {
	for _, cons := range []Consistency{PRAM, Slow, CausalFull} {
		t.Run(string(cons), func(t *testing.T) {
			c := allocCluster(t, cons, fullPlacement(4), 1)
			h := c.Node(0)
			for i := 0; i < 64; i++ {
				if err := h.Write("x", int64(i)+1); err != nil {
					t.Fatal(err)
				}
			}
			c.Quiesce()
			v := int64(1000)
			avg := testing.AllocsPerRun(50, func() {
				for i := 0; i < 16; i++ {
					v++
					if err := h.Write("x", v); err != nil {
						t.Fatal(err)
					}
				}
				c.Quiesce()
			})
			if perWrite := avg / 16; perWrite > 0.1 {
				t.Errorf("%s uncoalesced Write allocates %.2f/op amortized, budget 0.1", cons, perWrite)
			}
		})
	}
}

// TestPutGetSmallValueAllocs locks the v2 byte-value surface to the
// same budgets as the int64 shim: a small-value (≤ 8 B) Put on the
// wait-free protocols amortizes within the PR-3 write budgets (the
// byte path is the same staged-encoder path), GetInto with a
// pre-sized buffer is 0 allocs/op, and Get costs exactly the one
// defensive copy.
func TestPutGetSmallValueAllocs(t *testing.T) {
	const batch = 16
	for _, tc := range []struct {
		cons   Consistency
		budget float64 // max allocs per Put, amortized (PR-3 Write budgets)
	}{
		{PRAM, 0.5},
		{Slow, 0.5},
		{CausalFull, 0.5},
	} {
		t.Run(string(tc.cons), func(t *testing.T) {
			c := allocCluster(t, tc.cons, fullPlacement(4), batch)
			h := c.Node(0)
			val := make([]byte, 8)
			for i := 0; i < 4*batch; i++ {
				val[7] = byte(i)
				if err := h.Put("x", val); err != nil {
					t.Fatal(err)
				}
			}
			c.Quiesce()
			avg := testing.AllocsPerRun(50, func() {
				for i := 0; i < batch; i++ {
					val[6]++
					if err := h.Put("x", val); err != nil {
						t.Fatal(err)
					}
				}
				c.Quiesce()
			})
			if perPut := avg / batch; perPut > tc.budget {
				t.Errorf("%s Put allocates %.2f/op amortized, budget %.1f", tc.cons, perPut, tc.budget)
			}
			dst := make([]byte, 0, 16)
			if avg := testing.AllocsPerRun(1000, func() {
				var err error
				dst, err = h.GetInto("x", dst)
				if err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Errorf("%s GetInto allocates %.2f/op, want 0", tc.cons, avg)
			}
			if avg := testing.AllocsPerRun(1000, func() {
				if _, err := h.Get("x"); err != nil {
					t.Fatal(err)
				}
			}); avg > 1 {
				t.Errorf("%s Get allocates %.2f/op, budget 1 (the defensive copy)", tc.cons, avg)
			}
		})
	}
}

// TestCoalescingCutsMessages pins down the message-count effect the
// outbox exists for: a burst of B writes to k peers is k messages, not
// k·B.
func TestCoalescingCutsMessages(t *testing.T) {
	const nodes, burst = 4, 16
	for _, tc := range []struct {
		batch    int
		wantMsgs int64
	}{
		{1, burst * (nodes - 1)}, // uncoalesced: one message per write per peer
		{burst, nodes - 1},       // coalesced: one frame per peer
	} {
		t.Run(fmt.Sprintf("batch=%d", tc.batch), func(t *testing.T) {
			c := allocCluster(t, PRAM, fullPlacement(nodes), tc.batch)
			h := c.Node(0)
			for i := 0; i < burst; i++ {
				if err := h.Write("x", int64(i)+1); err != nil {
					t.Fatal(err)
				}
			}
			c.Quiesce()
			if got := c.Stats().Msgs; got != tc.wantMsgs {
				t.Errorf("batch=%d: %d messages for a %d-write burst, want %d",
					tc.batch, got, burst, tc.wantMsgs)
			}
			// Coalescing must not leak information outside C(x).
			if err := c.VerifyEfficiency(); err != nil {
				t.Errorf("efficiency: %v", err)
			}
		})
	}
}
