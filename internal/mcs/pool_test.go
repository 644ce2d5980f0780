package mcs

import (
	"testing"

	"partialdsm/internal/netsim"
)

// drainPools empties the process-wide free lists so a test can observe
// exactly what comes back.
func drainPools() {
	for {
		select {
		case <-payloadPool:
		case <-sharedPool:
		default:
			return
		}
	}
}

// pooledShared takes the frame waiting in the shared pool, if any.
func pooledShared() (sharedFrame, bool) {
	select {
	case f := <-sharedPool:
		return f, true
	default:
		return sharedFrame{}, false
	}
}

// TestSharedPayloadRefcountRecycling checks the refcounted multicast
// discipline on the paired pool: of n receivers only the last returns
// the {buffer, refcount} pair, exactly once and in one piece; earlier
// ones only decrement; and the pair drawn next is the one returned.
func TestSharedPayloadRefcountRecycling(t *testing.T) {
	const fanout = 3
	drainPools()
	buf, refs := GetSharedPayload(fanout)
	buf = append(buf, 1, 2, 3, 4)
	msg := netsim.Message{Payload: buf, SharedPayload: true, SharedRefs: refs}

	for i := 1; i < fanout; i++ {
		RecycleFrame(msg)
		if got := refs.Load(); got != int32(fanout-i) {
			t.Fatalf("refcount %d after %d of %d releases", got, i, fanout)
		}
		if f, ok := pooledShared(); ok {
			t.Fatalf("frame recycled after %d of %d releases (got %v)", i, fanout, f.buf)
		}
	}
	RecycleFrame(msg)
	if len(sharedPool) != 1 || len(payloadPool) != 0 {
		t.Fatalf("last release left %d pairs and %d bare buffers pooled, want 1 and 0", len(sharedPool), len(payloadPool))
	}
	again, againRefs := GetSharedPayload(2)
	if againRefs != refs || cap(again) == 0 || &again[:1][0] != &buf[0] {
		t.Fatal("the pair drawn next is not the pair the last receiver returned")
	}
	if len(again) != 0 || againRefs.Load() != 2 {
		t.Fatalf("recycled pair comes back with %d bytes and refcount %d, want 0 and 2", len(again), againRefs.Load())
	}
	if _, ok := pooledShared(); ok {
		t.Fatal("the pair was returned more than once")
	}
}

// TestSharedPayloadWithoutRefsIsLeftAlone pins the legacy shared-frame
// behaviour: no refcount means no receiver may recycle.
func TestSharedPayloadWithoutRefsIsLeftAlone(t *testing.T) {
	drainPools()
	msg := netsim.Message{Payload: []byte{9, 9}, SharedPayload: true}
	RecycleFrame(msg)
	if len(payloadPool) != 0 || len(sharedPool) != 0 {
		t.Fatal("refcount-less shared payload was recycled")
	}
}

// TestRecycleFrameLeavesVars checks that a delivered frame's variable
// list, which belongs to the sender, survives RecycleFrame untouched.
func TestRecycleFrameLeavesVars(t *testing.T) {
	drainPools()
	vars := []string{"x", "y"}
	RecycleFrame(netsim.Message{Payload: GetPayload(), Vars: vars})
	if len(payloadPool) != 1 {
		t.Fatal("single-destination payload was not recycled")
	}
	if vars[0] != "x" || vars[1] != "y" {
		t.Fatalf("RecycleFrame rewrote the sender's variable list: %v", vars)
	}
}
