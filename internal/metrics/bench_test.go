package metrics

import (
	"sync/atomic"
	"testing"
)

// benchRecord is the shape of metrics.record_ns in benchmark/: one
// kind, sixteen nodes, one single-variable list.
func benchRecord(c *Collector, i int, vars []string) {
	c.RecordMessage("upd", i%16, (i+1)%16, 12, 8, vars)
}

func BenchmarkRecordMessage(b *testing.B) {
	c, vars := NewCollector(), []string{"x1"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchRecord(c, i, vars)
	}
	if s := c.Snapshot(); s.Msgs != int64(b.N) {
		b.Fatalf("counted %d of %d messages", s.Msgs, b.N)
	}
}

func BenchmarkRecordMessageParallel(b *testing.B) {
	c, vars := NewCollector(), []string{"x1"}
	var next atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		i := int(next.Add(1)) * 5 // spread the goroutines over the sender shards
		for pb.Next() {
			benchRecord(c, i, vars)
		}
	})
	if s := c.Snapshot(); s.Msgs != int64(b.N) {
		b.Fatalf("counted %d of %d messages", s.Msgs, b.N)
	}
}
