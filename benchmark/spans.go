package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// spanKind names one boundary the benchmark crosses into the product:
// every call into the partialdsm facade has a kind, plus the three
// structural spans the driver owns (run, episode, round).
type spanKind uint8

const (
	spanRun spanKind = iota
	spanEpisode
	spanRound
	spanNew
	spanPut
	spanGet
	spanQuiesce
	spanStats
	spanTick
	spanCrashRestart
	spanVerifyWitness
	spanVerifyEfficiency
	spanExportTrace
	spanDecodeVerify
	spanClose
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"run", "episode", "round", "new", "put", "get", "quiesce", "stats", "tick",
	"crash_restart", "verify_witness", "verify_efficiency", "export_trace",
	"decode_verify", "close",
}

// span is one kept (round- or episode-level) span. Times are
// nanoseconds since the tracer's base.
type span struct {
	kind       spanKind
	parent     int32 // index of the enclosing kept span, -1 for the root
	round      int32 // the round (or episode) the span belongs to
	start, end int64
}

// fold is the in-place summary every span kind gets: count, total and
// self time, and a duration histogram. Operation-level spans (put, get)
// exist only as folds — keeping millions of span records would measure
// the allocator, not the DSM.
type fold struct {
	count int64
	total int64 // summed durations
	self  int64 // summed durations minus the time covered by child spans
	h     hist
}

// tracer records spans around the benchmark's calls into the facade,
// from the benchmark's own files. A nil *tracer is the untraced pass:
// begin/end are no-ops on it, and the per-operation call sites guard
// leaf themselves so the untraced hot loop pays one predictable branch.
type tracer struct {
	base  time.Time
	spans []span
	open  []openSpan
	folds [numSpanKinds]fold
	round int32
}

type openSpan struct {
	idx      int32
	children int64 // time covered by already-closed child spans
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a kept span under the innermost open one. A round or an
// episode starts a new round identifier, which every span inside it
// carries.
func (t *tracer) begin(k spanKind) {
	if t == nil {
		return
	}
	if k == spanRound || k == spanEpisode {
		t.round++
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1].idx
	}
	t.spans = append(t.spans, span{kind: k, parent: parent, round: t.round, start: t.now()})
	t.open = append(t.open, openSpan{idx: int32(len(t.spans) - 1)})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	now := t.now()
	o := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[o.idx]
	s.end = now
	dur := now - s.start
	f := &t.folds[s.kind]
	f.count++
	f.total += dur
	f.self += dur - o.children
	f.h.add(dur)
	if n := len(t.open); n > 0 {
		t.open[n-1].children += dur
	}
}

// leaf folds one operation-level span that started at `since` and ends
// now, and returns now so consecutive operations share one clock read
// per boundary.
func (t *tracer) leaf(k spanKind, since int64) int64 {
	now := t.now()
	dur := now - since
	f := &t.folds[k]
	f.count++
	f.total += dur
	f.self += dur
	f.h.add(dur)
	if n := len(t.open); n > 0 {
		t.open[n-1].children += dur
	}
	return now
}

// share is a span kind's self time as a fraction of the timed wall.
func (t *tracer) share(k spanKind, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(t.folds[k].self) / float64(wall)
}

// write dumps the kept spans and every fold as JSON.
func (t *tracer) write(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	type foldJSON struct {
		Name    string  `json:"name"`
		Count   int64   `json:"count"`
		TotalNs int64   `json:"total_ns"`
		SelfNs  int64   `json:"self_ns"`
		P50Ns   float64 `json:"p50_ns"`
		P99Ns   float64 `json:"p99_ns"`
	}
	var folds []foldJSON
	for k := range t.folds {
		fd := &t.folds[k]
		if fd.count == 0 {
			continue
		}
		folds = append(folds, foldJSON{spanNames[k], fd.count, fd.total, fd.self, fd.h.quantile(0.5), fd.h.quantile(0.99)})
	}
	head, err := json.Marshal(struct {
		Workload string     `json:"workload"`
		Folds    []foldJSON `json:"folds"`
	}{workload, folds})
	if err != nil {
		f.Close()
		return err
	}
	// One span per line keeps the file greppable and the writer free
	// of a second in-memory copy.
	fmt.Fprintf(w, "{\"summary\":%s,\n\"spans\":[\n", head)
	for i, s := range t.spans {
		sep := ","
		if i == len(t.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "{\"id\":%d,\"name\":%q,\"parent\":%d,\"round\":%d,\"start_ns\":%d,\"end_ns\":%d}%s\n",
			i, spanNames[s.kind], s.parent, s.round, s.start, s.end, sep)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
