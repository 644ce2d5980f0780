package mcs

import (
	"reflect"
	"sync"
	"testing"

	"partialdsm/internal/netsim"
)

// captureNet is a minimal synchronous Transport that records every
// Send, for exercising the Outbox without a real delivery engine.
type captureNet struct {
	n    int
	sent []netsim.Message
	clk  netsim.Clock // nil unless a test installs a manual clock
}

func (c *captureNet) NumNodes() int                  { return c.n }
func (c *captureNet) SetHandler(int, netsim.Handler) {}
func (c *captureNet) Send(m netsim.Message)          { c.sent = append(c.sent, m) }
func (c *captureNet) Quiesce()                       {}
func (c *captureNet) Close()                         {}
func (c *captureNet) Clock() netsim.Clock            { return c.clk }

var _ netsim.Transport = (*captureNet)(nil)

// record is a decoded test record: (U32 a, I64 b).
type record struct {
	a uint32
	b int64
}

// stageRecord stages one test record.
func stageRecord(o *Outbox, r record) *Enc {
	enc := o.Stage()
	enc.U32(r.a).I64(r.b)
	return enc
}

// decodeFrame decodes a frame of test records.
func decodeFrame(t *testing.T, payload []byte) []record {
	t.Helper()
	d := DecOf(payload)
	count := int(d.U32())
	out := make([]record, 0, count)
	for k := 0; k < count; k++ {
		out = append(out, record{a: d.U32(), b: d.I64()})
	}
	if err := d.Err(); err != nil {
		t.Fatalf("frame decode: %v", err)
	}
	if d.Rest() != 0 {
		t.Fatalf("frame leaves %d trailing bytes", d.Rest())
	}
	return out
}

// TestOutboxFrameRoundTrip is the table-driven round-trip check for the
// batched wire frame: records staged per destination come back out of
// the frame exactly, in order, with the header and byte accounting the
// coalescing policy implies.
func TestOutboxFrameRoundTrip(t *testing.T) {
	cases := []struct {
		name      string
		batch     int
		records   []record // all staged for destination 1
		wantSends []int    // record count per emitted message, in order
	}{
		{"single-immediate", 1, []record{{1, -1}}, []int{1}},
		{"batch-disabled-each-flushes", 1, []record{{1, 10}, {2, 20}, {3, 30}}, []int{1, 1, 1}},
		{"zero-batch-means-immediate", 0, []record{{1, 10}, {2, 20}}, []int{1, 1}},
		{"under-batch-holds", 4, []record{{1, 10}, {2, 20}, {3, 30}}, nil},
		{"exact-batch-flushes", 3, []record{{1, 10}, {2, 20}, {3, 30}}, []int{3}},
		{"overflow-splits", 2, []record{{1, 10}, {2, 20}, {3, 30}, {4, 40}, {5, 50}}, []int{2, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := &captureNet{n: 3}
			o := NewOutbox(net, 0, "test.update", tc.batch)
			for _, r := range tc.records {
				stageRecord(o, r)
				o.AddTo(1, "x", 4, 8)
			}
			if got := len(net.sent); got != len(tc.wantSends) {
				t.Fatalf("auto-flushed %d messages, want %d", got, len(tc.wantSends))
			}
			var decoded []record
			for i, m := range net.sent {
				if m.From != 0 || m.To != 1 || m.Kind != "test.update" {
					t.Fatalf("message %d misaddressed: %+v", i, m)
				}
				recs := decodeFrame(t, m.Payload)
				if len(recs) != tc.wantSends[i] {
					t.Fatalf("message %d carries %d records, want %d", i, len(recs), tc.wantSends[i])
				}
				if wantCtrl := 4 + 4*len(recs); m.CtrlBytes != wantCtrl {
					t.Errorf("message %d ctrl bytes = %d, want %d", i, m.CtrlBytes, wantCtrl)
				}
				if wantData := 8 * len(recs); m.DataBytes != wantData {
					t.Errorf("message %d data bytes = %d, want %d", i, m.DataBytes, wantData)
				}
				if !reflect.DeepEqual(m.Vars, []string{"x"}) {
					t.Errorf("message %d vars = %v", i, m.Vars)
				}
				decoded = append(decoded, recs...)
			}
			// Whatever did not auto-flush must come out on Flush, in order.
			o.Flush()
			for _, m := range net.sent[len(tc.wantSends):] {
				decoded = append(decoded, decodeFrame(t, m.Payload)...)
			}
			if !reflect.DeepEqual(decoded, tc.records) {
				t.Fatalf("round trip %v → %v", tc.records, decoded)
			}
			if o.HasPending() {
				t.Error("outbox still pending after Flush")
			}
		})
	}
}

// TestOutboxPerDestinationFrames checks that one staged record fans out
// to several destinations without re-encoding and that each destination
// gets its own private payload (the receiver is entitled to recycle it).
func TestOutboxPerDestinationFrames(t *testing.T) {
	net := &captureNet{n: 4}
	o := NewOutbox(net, 0, "test.update", 8)
	stageRecord(o, record{7, 77})
	for _, dst := range []int{1, 2, 3} {
		o.AddTo(dst, "x", 4, 8)
	}
	o.Flush()
	if len(net.sent) != 3 {
		t.Fatalf("sent %d messages, want 3", len(net.sent))
	}
	for i, m := range net.sent {
		if got := decodeFrame(t, m.Payload); len(got) != 1 || got[0] != (record{7, 77}) {
			t.Fatalf("destination %d decoded %v", m.To, got)
		}
		for j := i + 1; j < len(net.sent); j++ {
			if &m.Payload[0] == &net.sent[j].Payload[0] {
				t.Fatalf("messages %d and %d share a payload buffer", i, j)
			}
		}
	}
}

// TestOutboxVarListDedup checks the frame's touch list: duplicates
// collapse, distinct variables accumulate.
func TestOutboxVarListDedup(t *testing.T) {
	net := &captureNet{n: 2}
	o := NewOutbox(net, 0, "test.update", 8)
	stageRecord(o, record{1, 1})
	o.AddTo(1, "x", 4, 8)
	stageRecord(o, record{2, 2})
	o.AddToVars(1, []string{"y", "x", "y"}, 4, 8)
	o.Flush()
	if len(net.sent) != 1 {
		t.Fatalf("sent %d messages, want 1", len(net.sent))
	}
	if got := net.sent[0].Vars; !reflect.DeepEqual(got, []string{"x", "y"}) {
		t.Fatalf("vars = %v, want [x y]", got)
	}
}

// accountingNet reads a message the way a real transport does: the
// variable list synchronously inside Send (the collector), never after.
type accountingNet struct {
	captureNet
	seen  [][]string // each Send's variable list, copied during Send
	lists [][]string // the slices themselves, to look at afterwards
}

func (a *accountingNet) Send(m netsim.Message) {
	a.seen = append(a.seen, append([]string(nil), m.Vars...))
	a.lists = append(a.lists, m.Vars)
}

// TestOutboxReusesVarListAcrossFlushes checks the ownership rule that
// replaced the variable-list pool: a coalescing outbox keeps one list
// per destination and rewrites it for the next frame, and what a Send
// sees while it runs is exactly its own frame's variables.
func TestOutboxReusesVarListAcrossFlushes(t *testing.T) {
	net := &accountingNet{captureNet: captureNet{n: 3}}
	o := NewOutbox(net, 0, "test.update", 2)
	frames := [][]string{{"a", "b"}, {"c", "d"}, {"e", "a"}}
	for i, frame := range frames {
		for _, x := range frame {
			stageRecord(o, record{uint32(i), 0})
			o.AddTo(1, x, 4, 8) // the second AddTo fills the batch and flushes
		}
	}
	stageRecord(o, record{9, 9})
	o.AddTo(2, "z", 4, 8) // another destination's list is its own
	o.Flush()
	want := append(append([][]string(nil), frames...), []string{"z"})
	if !reflect.DeepEqual(net.seen, want) {
		t.Fatalf("Sends saw %v, want %v", net.seen, want)
	}
	for i := 1; i < len(frames); i++ {
		if &net.lists[i][0] != &net.lists[0][0] {
			t.Fatalf("frame %d to the same destination did not reuse the variable list", i)
		}
	}
	if &net.lists[3][0] == &net.lists[0][0] {
		t.Fatal("two destinations share one variable list")
	}
	if got := net.lists[0]; got[0] != "e" || got[1] != "a" {
		t.Fatalf("first frame's list now reads %v: it was not rewritten in place", got)
	}
}

// manualClock is a hand-cranked netsim.Clock for policy tests: timers
// fire only when the test advances it.
type manualClock struct {
	now    uint64
	timers []struct {
		tick uint64
		fn   func()
	}
}

func (c *manualClock) Now() uint64 { return c.now }
func (c *manualClock) After(d uint64, fn func()) uint64 {
	t := c.now + d
	c.Schedule(t, fn)
	return t
}
func (c *manualClock) Schedule(tick uint64, fn func()) {
	c.timers = append(c.timers, struct {
		tick uint64
		fn   func()
	}{tick, fn})
}
func (c *manualClock) AdvanceIdle() { c.advanceTo(c.now) }

// advanceTo cranks virtual time forward, firing due timers in
// registration order.
func (c *manualClock) advanceTo(t uint64) {
	if t > c.now {
		c.now = t
	}
	for i := 0; i < len(c.timers); i++ {
		if c.timers[i].tick <= c.now {
			fn := c.timers[i].fn
			c.timers = append(c.timers[:i], c.timers[i+1:]...)
			i--
			fn()
		}
	}
}

// TestOutboxTimerFlush checks the virtual-time flush policy: a record
// staged into an empty outbox arms a deadline flushTicks ahead, the
// deadline flushes every pending frame, and the next stage re-arms.
func TestOutboxTimerFlush(t *testing.T) {
	clk := &manualClock{}
	net := &captureNet{n: 3, clk: clk}
	o := NewOutbox(net, 0, "test.update", 8)
	var mu sync.Mutex
	o.SetFlushPolicy(&mu, 4, false)

	stageRecord(o, record{1, 10})
	o.AddTo(1, "x", 4, 8)
	stageRecord(o, record{2, 20})
	o.AddTo(2, "x", 4, 8)
	if len(net.sent) != 0 {
		t.Fatalf("flushed %d frames before the deadline", len(net.sent))
	}
	clk.advanceTo(3) // not due yet
	if len(net.sent) != 0 {
		t.Fatalf("flushed %d frames one tick early", len(net.sent))
	}
	clk.advanceTo(4) // deadline: both destinations flush
	if len(net.sent) != 2 {
		t.Fatalf("deadline flushed %d frames, want 2", len(net.sent))
	}
	if o.HasPending() {
		t.Fatal("records still pending after the deadline flush")
	}
	// The next staged record re-arms relative to the current tick.
	stageRecord(o, record{3, 30})
	o.AddTo(1, "x", 4, 8)
	clk.advanceTo(7) // 4 + 3 < 8: not due
	if len(net.sent) != 2 {
		t.Fatal("re-armed deadline fired early")
	}
	clk.advanceTo(8)
	if len(net.sent) != 3 {
		t.Fatalf("re-armed deadline flushed %d frames total, want 3", len(net.sent))
	}
}

// TestOutboxAdaptiveFallbackFlush checks the adaptive policy against a
// transport without a PairMonitor: the frame flushes at the next clock
// advance, and records staged before the advance ride together.
func TestOutboxAdaptiveFallbackFlush(t *testing.T) {
	clk := &manualClock{}
	net := &captureNet{n: 2, clk: clk}
	o := NewOutbox(net, 0, "test.update", 8)
	var mu sync.Mutex
	o.SetFlushPolicy(&mu, 0, true)

	stageRecord(o, record{1, 10})
	o.AddTo(1, "x", 4, 8)
	stageRecord(o, record{2, 20})
	o.AddTo(1, "x", 4, 8)
	if len(net.sent) != 0 {
		t.Fatal("adaptive flushed before any clock advance")
	}
	clk.AdvanceIdle()
	if len(net.sent) != 1 {
		t.Fatalf("adaptive flushed %d frames, want 1", len(net.sent))
	}
	if recs := decodeFrame(t, net.sent[0].Payload); len(recs) != 2 {
		t.Fatalf("adaptive frame carries %d records, want 2 (staged records must ride together)", len(recs))
	}
}

// TestOutboxPolicyDisabledWithoutClock checks that SetFlushPolicy is a
// no-op against a clockless transport and on batch < 2.
func TestOutboxPolicyDisabledWithoutClock(t *testing.T) {
	var mu sync.Mutex
	o := NewOutbox(&captureNet{n: 2}, 0, "test.update", 8)
	o.SetFlushPolicy(&mu, 4, true) // Clock() returns nil: must not panic later
	stageRecord(o, record{1, 1})
	o.AddTo(1, "x", 4, 8)
	o.Nudge()

	small := NewOutbox(&captureNet{n: 2, clk: &manualClock{}}, 0, "test.update", 1)
	small.SetFlushPolicy(&mu, 4, true) // batch < 2: coalescing off, policy off
	if small.clk != nil {
		t.Fatal("flush policy armed on an uncoalesced outbox")
	}
}

// TestOutboxEmptyFlushSendsNothing checks Flush on an idle outbox.
func TestOutboxEmptyFlushSendsNothing(t *testing.T) {
	net := &captureNet{n: 2}
	o := NewOutbox(net, 0, "test.update", 4)
	o.Flush()
	if len(net.sent) != 0 {
		t.Fatalf("empty flush sent %d messages", len(net.sent))
	}
	if o.HasPending() {
		t.Error("fresh outbox reports pending updates")
	}
}
