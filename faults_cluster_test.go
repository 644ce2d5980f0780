package partialdsm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"partialdsm/internal/netsim"
)

// TestClusterFaultDropStatsAndQuiesce exercises the facade's seeded
// loss injection on a wait-free protocol: with every message dropped,
// Quiesce must still complete (losses are accounted, not parked) and
// Stats must report the drops.
func TestClusterFaultDropStatsAndQuiesce(t *testing.T) {
	c := newCluster(t, Config{
		Consistency: PRAM, PlacementLists: fullPlacement(3),
		VirtualLatency: true, FaultDrop: 1, FaultSeed: 5,
	})
	for k := int64(1); k <= 10; k++ {
		if err := c.Node(0).Write("x", k); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Quiesce(); err != nil {
		t.Fatalf("Quiesce under total loss: %v", err)
	}
	if v, err := c.Node(1).Read("x"); err != nil || v != Bottom {
		t.Fatalf("node 1 read %d, %v; want Bottom (all updates dropped)", v, err)
	}
	if got := c.Stats().Faults["drop"]; got == 0 {
		t.Fatalf("Stats.Faults[drop] = %d, want > 0", got)
	}
}

// TestClusterReliableRestoresBlockingProtocolUnderFaults runs a
// blocking protocol — which hangs on a lossy network, its ordering
// round trips never completing — over the ack/retransmit layer and
// verifies both liveness and its consistency witness.
func TestClusterReliableRestoresBlockingProtocolUnderFaults(t *testing.T) {
	c := newCluster(t, Config{
		Consistency: Sequential, PlacementLists: fullPlacement(3),
		VirtualLatency: true,
		FaultDrop:      0.2, FaultDup: 0.2, FaultSeed: 7,
		Reliable: true,
	})
	for k := int64(1); k <= 30; k++ {
		for i := 0; i < c.NumNodes(); i++ {
			if err := c.Node(i).Write("x", int64(i)*100+k); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyWitness(); err != nil {
		t.Fatalf("witness under recovered faults: %v", err)
	}
	s := c.Stats()
	if s.Faults["drop"] == 0 || s.Faults["dup"] == 0 {
		t.Fatalf("faults not injected: %v", s.Faults)
	}
	if s.Retransmits == 0 || s.DupsSuppressed == 0 || s.AcksSent == 0 {
		t.Fatalf("no recovery work recorded: %+v", s)
	}
	if s.Abandoned != 0 {
		t.Fatalf("Abandoned = %d on a partition-free run, want 0", s.Abandoned)
	}
}

// TestClusterAtomicDupSafe pins the atomicreg duplication fix: with
// every message duplicated, write requests must not be applied twice
// and acks must not double-count, so the run stays atomic and no node
// reports a dropped frame.
func TestClusterAtomicDupSafe(t *testing.T) {
	c := newCluster(t, Config{
		Consistency: Atomic, PlacementLists: fullPlacement(3),
		VirtualLatency: true, FaultDup: 1, FaultSeed: 3,
	})
	for k := int64(1); k <= 5; k++ {
		if err := c.Node(0).Write("x", k); err != nil {
			t.Fatal(err)
		}
		if v, err := c.Node(1).Read("x"); err != nil || v != k {
			t.Fatalf("node 1 read %d, %v after write %d", v, err, k)
		}
	}
	if err := c.Quiesce(); err != nil {
		t.Fatalf("Quiesce (a dropped-frame fault would surface here): %v", err)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("Err() = %v, want nil: duplicated frames must be absorbed", err)
	}
	if err := c.VerifyWitness(); err != nil {
		t.Fatalf("atomic witness under duplication: %v", err)
	}
	if got := c.Stats().Faults["dup"]; got == 0 {
		t.Fatalf("Stats.Faults[dup] = %d, want > 0", got)
	}
}

// TestClusterErrReportsDroppedFrame verifies the per-node fail-fast
// path: a frame the protocol cannot process is reported through
// Cluster.Err and fails the next Quiesce instead of panicking the
// delivery goroutine.
func TestClusterErrReportsDroppedFrame(t *testing.T) {
	c := newCluster(t, Config{Consistency: PRAM, PlacementLists: fullPlacement(2), VirtualLatency: true})
	c.net.Send(netsim.Message{From: 0, To: 1, Kind: "bogus.kind", Payload: []byte{1, 2, 3}})
	c.net.Quiesce()
	err := c.Err()
	if err == nil {
		t.Fatal("Err() = nil after an unprocessable frame")
	}
	if !strings.Contains(err.Error(), "node 1 dropped a frame") {
		t.Fatalf("Err() = %v, want the dropping node named", err)
	}
	if qerr := c.Quiesce(); qerr == nil {
		t.Fatal("Quiesce = nil, want fail-fast with the recorded fault")
	}
}

// TestClusterCutHealCrashRestart walks the hard-fault surface on PRAM:
// a cut link loses (not parks) messages, healing restores flow without
// replay, and a crash/restart cycle re-learns the wiped replicas from
// the live peers' snapshots before new traffic resumes.
func TestClusterCutHealCrashRestart(t *testing.T) {
	c := newCluster(t, Config{Consistency: PRAM, PlacementLists: fullPlacement(3), VirtualLatency: true})
	read := func(node int, want int64, what string) {
		t.Helper()
		if v, err := c.Node(node).Read("x"); err != nil || v != want {
			t.Fatalf("%s: node %d read %d, %v; want %d", what, node, v, err, want)
		}
	}

	c.CutLink(0, 1)
	if err := c.Node(0).Write("x", 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(); err != nil {
		t.Fatal(err)
	}
	read(1, Bottom, "across cut link")
	read(2, 1, "unaffected link")

	c.HealLink(0, 1)
	if err := c.Node(0).Write("x", 2); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(); err != nil {
		t.Fatal(err)
	}
	read(1, 2, "after heal (no replay of the lost write)")

	if err := c.CrashNode(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Node(0).Write("x", 3); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartNode(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(); err != nil {
		t.Fatal(err)
	}
	read(1, 3, "recovered the write missed while crashed")
	if err := c.Node(0).Write("x", 4); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(); err != nil {
		t.Fatal(err)
	}
	read(1, 4, "rejoined after restart")

	s := c.Stats()
	if s.Faults["partition"] == 0 || s.Faults["crash"] == 0 {
		t.Fatalf("hard faults not recorded: %v", s.Faults)
	}
	if s.Recoveries != 1 || s.RecoveryMsgs == 0 {
		t.Fatalf("recovery not accounted: Recoveries=%d RecoveryMsgs=%d", s.Recoveries, s.RecoveryMsgs)
	}
}

// TestClusterCrashRecoverAllProtocols drives the crash → restart →
// recover cycle on every protocol and both transports: the write the
// crashed node missed must be readable after its rejoin (fetched from
// the peers' snapshots, not from new traffic), subsequent traffic must
// flow, and the protocol's own witness must validate across the
// recovery epoch.
func TestClusterCrashRecoverAllProtocols(t *testing.T) {
	for _, tr := range Transports {
		for _, cons := range Consistencies {
			t.Run(string(tr)+"/"+string(cons), func(t *testing.T) {
				c := newCluster(t, Config{
					Consistency: cons, PlacementLists: fullPlacement(3),
					Transport: tr, VirtualLatency: true, Seed: 23,
				})
				step := func(err error) {
					t.Helper()
					if err != nil {
						t.Fatal(err)
					}
				}
				read := func(node int, want int64, what string) {
					t.Helper()
					if v, err := c.Node(node).Read("x"); err != nil || v != want {
						t.Fatalf("%s: node %d read %d, %v; want %d", what, node, v, err, want)
					}
				}
				step(c.Node(0).Write("x", 1))
				step(c.Quiesce())
				step(c.CrashNode(1))
				step(c.Node(0).Write("x", 2))
				step(c.Quiesce())
				step(c.RestartNode(1))
				step(c.Quiesce())
				read(1, 2, "pre-restart write recovered from peers")
				step(c.Node(0).Write("x", 3))
				step(c.Quiesce())
				read(1, 3, "traffic flows after rejoin")
				if err := c.VerifyWitness(); err != nil {
					t.Fatalf("witness across the recovery epoch: %v", err)
				}
				if s := c.Stats(); s.Recoveries != 1 || s.RecoveryMsgs == 0 {
					t.Fatalf("recovery not accounted: Recoveries=%d RecoveryMsgs=%d", s.Recoveries, s.RecoveryMsgs)
				}
			})
		}
	}
}

// TestClusterRestartInsidePartition restarts a node whose snapshot
// peers are unreachable behind cut links: recovery must not wedge the
// cluster — the snapshot requests retry on the virtual clock, and once
// the partition heals the rejoin completes with the pre-crash value.
func TestClusterRestartInsidePartition(t *testing.T) {
	c := newCluster(t, Config{
		Consistency: PRAM, PlacementLists: fullPlacement(3),
		VirtualLatency: true, Seed: 31,
	})
	step := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	step(c.Node(0).Write("x", 1))
	step(c.Quiesce())
	step(c.CrashNode(1))
	step(c.Node(0).Write("x", 2))
	step(c.Quiesce())
	// Cut node 1 off from both peers in both directions, then restart
	// it inside the partition: the snapshot requests are lost.
	for _, p := range []int{0, 2} {
		c.CutLink(1, p)
		c.CutLink(p, 1)
	}
	step(c.RestartNode(1))
	if v, err := c.Node(1).Read("x"); err != nil || v != Bottom {
		t.Fatalf("node 1 inside partition read %d, %v; want Bottom (snapshots lost)", v, err)
	}
	// Heal before the retry budget is exhausted and let the retried
	// handshake complete.
	for _, p := range []int{0, 2} {
		c.HealLink(1, p)
		c.HealLink(p, 1)
	}
	step(c.Quiesce())
	if v, err := c.Node(1).Read("x"); err != nil || v != 2 {
		t.Fatalf("node 1 after heal read %d, %v; want 2 (retried snapshot adopted)", v, err)
	}
	if s := c.Stats(); s.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", s.Recoveries)
	}
}

// TestClusterOpDeadlineFailsFast pins the bounded-blocking contract:
// with Config.OpDeadlineTicks set, a blocking protocol's round trip
// lost to an unhealed cut fails fast with ErrOpDeadline — and records
// the fault — instead of hanging the application goroutine forever.
func TestClusterOpDeadlineFailsFast(t *testing.T) {
	for _, cons := range []Consistency{Sequential, Atomic, CacheConsistency} {
		t.Run(string(cons), func(t *testing.T) {
			c := newCluster(t, Config{
				Consistency: cons, PlacementLists: fullPlacement(2),
				VirtualLatency: true, OpDeadlineTicks: 1 << 12,
			})
			// Requests from node 1 toward its sequencer/primary (node
			// 0, the lowest clique member) are lost on the cut link.
			c.CutLink(1, 0)
			err := c.Node(1).Write("x", 1)
			if !errors.Is(err, ErrOpDeadline) {
				t.Fatalf("Write over a cut link: %v, want ErrOpDeadline", err)
			}
			if cons == Atomic {
				if _, err := c.Node(1).Read("x"); !errors.Is(err, ErrOpDeadline) {
					t.Fatalf("Read over a cut link: %v, want ErrOpDeadline", err)
				}
			}
			if c.Err() == nil {
				t.Fatal("Err() = nil, want the deadline fault recorded")
			}
		})
	}
}

// slidingPlacement puts vars variables named prefix0, prefix1, … on
// width consecutive nodes each, starting at node (index mod nodes).
func slidingPlacement(prefix string, nodes, vars, width int) [][]string {
	out := make([][]string, nodes)
	for v := 0; v < vars; v++ {
		for k := 0; k < width; k++ {
			p := (v + k) % nodes
			out[p] = append(out[p], fmt.Sprintf("%s%d", prefix, v))
		}
	}
	return out
}

// TestReliableClusterLeavesFramePoolsClean is the regression test for
// the pool poisoning benchmark/README.md reports as finding 4. Behind
// the reliable layer an uncoalesced frame reaches its handler with
// Vars still aliasing the sender's list — the static
// sharegraph.Index.MsgVars slice — and RecycleFrame used to put that
// slice into a process-wide variable-list pool once per delivery; the
// next coalescing cluster in the process then built several frames on
// one backing array and accounted one frame's variable to another's
// endpoints. Variable lists now stay with their sender.
func TestReliableClusterLeavesFramePoolsClean(t *testing.T) {
	put := func(c *Cluster, prefix string, nodes, vars, width, ops int) {
		t.Helper()
		var val [8]byte
		for i := 0; i < ops; i++ {
			v := i % vars
			binary.BigEndian.PutUint64(val[:], uint64(i+1))
			if err := c.Node((v+i%width)%nodes).Put(fmt.Sprintf("%s%d", prefix, v), val[:]); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Quiesce(); err != nil {
			t.Fatal(err)
		}
	}

	first, err := New(Config{
		Consistency: PRAM, PlacementLists: slidingPlacement("a", 4, 8, 3),
		Seed: 1, DisableTrace: true, Transport: TransportSharded,
		VirtualLatency: true, MaxLatency: 100 * time.Microsecond, Reliable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	put(first, "a", 4, 8, 3, 200)
	first.Close()

	second := newCluster(t, Config{
		Consistency: PRAM, PlacementLists: slidingPlacement("b", 6, 8, 2),
		Seed: 2, DisableTrace: true, Transport: TransportSharded, CoalesceBatch: 16,
	})
	put(second, "b", 6, 8, 2, 2000)
	if err := second.VerifyEfficiency(); err != nil {
		t.Errorf("coalescing cluster built after a reliable one: %v", err)
	}
	for node, names := range second.Stats().Touch {
		for _, x := range names {
			if !strings.HasPrefix(x, "b") {
				t.Errorf("node %d touched %q, a variable of the closed cluster", node, x)
			}
		}
	}
}
