package mcs

import (
	"sync/atomic"

	"partialdsm/internal/netsim"
)

// Payload recycling.
//
// The transport contract (netsim.Transport) hands payload ownership to
// the destination handler: once the handler runs, the transport never
// reads or writes the slice again. Protocol handlers exploit that by
// returning fully decoded buffers to a process-wide free list, so in
// steady state a node's writes encode into recycled memory and the
// protocol hot path allocates nothing. Variable lists are not pooled:
// the transport reads Message.Vars only inside Send, so a list stays
// with its sender (the Outbox reuses one per destination).
//
// The free lists are buffered channels rather than sync.Pool: putting a
// []byte into a sync.Pool boxes the slice header into an interface and
// allocates on every Put, which would defeat the purpose; channel sends
// copy the header without boxing.
const poolSlots = 1024

// sharedFrame is a multicast's buffer with its delivery refcount; the
// two travel through sharedPool as one value, one channel operation a
// side.
type sharedFrame struct {
	buf  []byte
	refs *atomic.Int32
}

var (
	payloadPool = make(chan []byte, poolSlots)
	sharedPool  = make(chan sharedFrame, poolSlots)
)

// GetPayload returns a recycled payload buffer (length 0, arbitrary
// capacity), or a fresh one when the pool is empty.
func GetPayload() []byte {
	select {
	case b := <-payloadPool:
		return b[:0]
	default:
		return make([]byte, 0, 128)
	}
}

// PutPayload returns a payload buffer for reuse. Only the exclusive
// owner may call it: a handler that received the payload (single
// destination — multicast payloads shared across Sends must never be
// recycled) and has finished decoding it.
func PutPayload(b []byte) {
	if cap(b) == 0 {
		return
	}
	select {
	case payloadPool <- b:
	default:
	}
}

// GetSharedPayload returns a pooled payload buffer for a frame
// multicast to n destinations, paired with its delivery refcount. The
// sender attaches both to every copy of the message
// (Message.SharedPayload + Message.SharedRefs); the receiver that
// RecycleFrame observes decrementing the count to zero is the sole
// remaining owner and returns the pair to the pool.
func GetSharedPayload(n int) ([]byte, *atomic.Int32) {
	var f sharedFrame
	select {
	case f = <-sharedPool:
	default:
		f = sharedFrame{make([]byte, 0, 128), new(atomic.Int32)}
	}
	f.refs.Store(int32(n))
	return f.buf[:0], f.refs
}

// RecycleFrame releases the payload of a delivered Outbox frame. The
// handler of a protocol calls it after the frame has been fully
// decoded. Refcounted multicast frames (msg.SharedPayload with
// msg.SharedRefs) are recycled by whichever receiver turns out to be
// the last: earlier receivers only decrement. Shared frames without a
// refcount are left alone — the handler cannot know who else holds
// them. msg.Vars belongs to the sender and is not touched. Messages
// sent outside this buffer discipline must not be passed here.
func RecycleFrame(msg netsim.Message) {
	if !msg.SharedPayload {
		PutPayload(msg.Payload)
	} else if msg.SharedRefs != nil && msg.SharedRefs.Add(-1) == 0 {
		select {
		case sharedPool <- sharedFrame{msg.Payload, msg.SharedRefs}:
		default:
		}
	}
}
