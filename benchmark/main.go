// Command benchmark is the repository's yardstick: four seeded,
// closed-loop workloads driven from one goroutine against the public
// partialdsm facade, every output checked, every end-to-end metric
// printed by name with its unit, and — with -trace 1 — a per-layer
// ledger measured from outside, by timing calls into partialdsm's and
// internal/*'s public functions. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"partialdsm"
)

// sizing fixes how much work each part of the benchmark does. The
// defaults are the recorded sizes; the smoke test shrinks them.
type sizing struct {
	// Schedule lengths, in pre-generated accesses. zipf_reads replays a
	// far longer stream than pram_storm: its message count depends on
	// how many of the draws are writes (5%), and only at this length is
	// that share steady from seed to seed.
	stormSched, readsSched, auditSched int
	// Warm-up rounds of the two steady workloads.
	stormWarmRounds, readsWarmRounds int
	// proto_audit: operations per episode and per block.
	auditOps, auditBlock int
	// chaos_adaptive: phases in the schedule (even, so the rotation
	// state is periodic; long, so one seed's draws are not replayed
	// often enough to bias its placement dynamics), phases per episode
	// (see chaos), operations per phase and per block, warm-up phases.
	chaosPhases, chaosEpisode, chaosPhaseOps, chaosBlock, chaosWarmPhases int
	// setups is how many times set-up runs; setup_s is the median.
	setups int
	// ablateRounds is the length of each layer ablation, in pram_storm
	// rounds; probeScale multiplies every probe's iteration count.
	ablateRounds int
	probeScale   float64
}

var defaultSizing = sizing{
	stormSched: 1 << 16, readsSched: 1 << 20, auditSched: 1 << 16,
	stormWarmRounds: 1024, readsWarmRounds: 256,
	auditOps: 1000, auditBlock: 64,
	chaosPhases: 400, chaosEpisode: 25, chaosPhaseOps: 1500, chaosBlock: 150, chaosWarmPhases: 12,
	setups:       5,
	ablateRounds: 2000,
	probeScale:   1,
}

// env is what a workload's set-up sees: the seed its inputs derive from
// and the sizing.
type env struct {
	seed int64
	sz   sizing
}

// scenario is one set-up of one named workload.
type scenario interface {
	// setup generates the schedule, builds what the timed region needs
	// and warms it up.
	setup(e *env) error
	// hash identifies the generated schedule.
	hash() uint64
	// step runs the smallest unit of the timed region the workload may
	// stop after; false ends the workload early (the failure is
	// recorded in res).
	step(tr *tracer, res *result) bool
	// finish runs the final output checks, folds the cluster statistics
	// into res and releases the set-up.
	finish(tr *tracer, res *result)
	// discard releases a set-up that will not be measured.
	discard()
}

// workloadDef names a workload and says why it exists.
type workloadDef struct {
	name, why string
	make      func() scenario
	// configs lists every configuration the workload builds a cluster
	// from.
	configs func(seed int64) []partialdsm.Config
}

var workloadDefs = []workloadDef{
	{"pram_storm", "the paper's efficient PRAM protocol on its write hot path: 3 msgs/op through the sharded transport, collector, outbox and wire codec; recorder, checker and control plane idle",
		func() scenario { return &steady{shapeOf: stormShape} }, stormConfigs},
	{"zipf_reads", "95% local reads with a coalescing outbox: facade dispatch and replica lookup dominate and the transport is nearly idle, so a transport gain must show nothing here",
		func() scenario { return &steady{shapeOf: readsShape} }, readsConfigs},
	{"proto_audit", "all eight protocols on one hoop-saturated and one hoop-free share graph, traced and fully verified per episode: the paper's cost table plus vnet, recorder, checkers and trace codec",
		func() scenario { return &audit{} }, auditConfigs},
	{"chaos_adaptive", "control plane under faults: lossy links behind the reliable layer, a placement policy flipping epochs on denied demand, a crash and rejoin every phase, for PRAM and atomic",
		func() scenario { return &chaos{} }, chaosConfigs},
}

func findWorkload(defs []workloadDef, name string) (workloadDef, bool) {
	for _, d := range defs {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

var processStart = time.Now()

// nanotime is the benchmark's monotonic host clock.
func nanotime() int64 { return int64(time.Since(processStart)) }

// measure runs one pass over one workload: set-up (several times, for a
// steady setup_s), then steps until `seconds` have passed, then the
// final checks.
func measure(def workloadDef, e *env, seconds float64, tr *tracer) *result {
	res := &result{}
	var w scenario
	for i := 0; i < e.sz.setups; i++ {
		if w != nil {
			w.discard()
		}
		w = def.make()
		t0 := time.Now()
		err := w.setup(e)
		res.setups = append(res.setups, time.Since(t0))
		if err != nil {
			res.failf("set-up: %v", err)
			return res
		}
	}
	res.schedHash = w.hash()

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	tr.begin(spanRun)
	start := time.Now()
	budget := time.Duration(seconds * float64(time.Second))
	for w.step(tr, res) && time.Since(start) < budget {
	}
	res.wall = time.Since(start)
	tr.end()
	runtime.ReadMemStats(&m1)
	res.mallocs = m1.Mallocs - m0.Mallocs
	res.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.liveHeap = liveHeap()
	w.finish(tr, res)
	return res
}

// liveHeap returns the bytes still reachable. It collects twice: one
// collection only moves sync.Pool contents to their victim caches, and
// whether that had happened already is an accident of GC timing.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// watchdog turns a hang into a goroutine dump and a non-zero exit. The
// product's own hang protection (Config.OpDeadlineTicks) cannot be used
// here — see the README.
func watchdog(limit time.Duration, what string) *time.Timer {
	return time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s still running after %v; goroutines:\n", what, limit)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		os.Exit(3)
	})
}

// watchdogLimit is five times the expected run time, capped under the
// harness's own 180-second limit.
func watchdogLimit(seconds float64, traced bool) time.Duration {
	expect := seconds + 10
	if traced {
		expect = 2*seconds + 20
	}
	limit := time.Duration(5 * expect * float64(time.Second))
	if limit > 170*time.Second {
		limit = 170 * time.Second
	}
	return limit
}

// report is the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printMetrics(w io.Writer, defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := vals[d.name]
		fmt.Fprintf(w, "  %-40s %18.6f %s\n", d.name, v, d.unit)
		out[d.name] = metricValue{v, d.unit}
	}
	return out
}

func printHeader(w io.Writer, name string, seed int64, seconds float64, res *result) {
	fmt.Fprintf(w, "workload %s seed=%d schedule=%016x seconds=%g ops=%d rounds=%d go=%s nproc=%d GOMAXPROCS=%d\n",
		name, seed, res.schedHash, seconds, res.ops, res.rounds(), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

func printChecks(w io.Writer, res *result) {
	for i, c := range res.checks {
		if i == 8 {
			fmt.Fprintf(w, "  ... and %d more\n", len(res.checks)-i)
			break
		}
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", c)
	}
}

// runOne runs one workload the way the harness asks for it and prints
// the JSON report as the last line.
func runOne(stdout io.Writer, def workloadDef, seed int64, seconds float64, traced bool, traceOut string, sz sizing) bool {
	e := &env{seed: seed, sz: sz}
	var res *result
	var metrics map[string]metricValue
	if !traced {
		res = measure(def, e, seconds, nil)
		printHeader(stdout, def.name, seed, seconds, res)
		metrics = printMetrics(stdout, endToEndDefs, res.endToEnd())
	} else {
		var vals map[string]float64
		res, vals = tracedLedger(def, e, seconds, traceOut)
		printHeader(stdout, def.name, seed, seconds, res)
		metrics = printMetrics(stdout, perLayerDefs(), vals)
	}
	fmt.Fprintf(stdout, "  check_failures=%d failed_ops=%d denied_ops=%d\n", len(res.checks), res.failed, res.denied)
	printChecks(stdout, res)
	attempted := res.ops
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(report{res.correct(), attempted, res.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return false
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return res.correct()
}

// runAgree runs the untraced pass twice per workload in one process
// and prints, per end-to-end metric, the relative difference beside its
// bound.
func runAgree(stdout io.Writer, defs []workloadDef, seed int64, seconds float64, sz sizing) bool {
	ok := true
	for _, def := range defs {
		wd := watchdog(2*watchdogLimit(seconds, false), def.name)
		var runs [2]map[string]float64
		for i := range runs {
			res := measure(def, &env{seed: seed, sz: sz}, seconds, nil)
			if !res.correct() {
				printChecks(stdout, res)
				ok = false
			}
			runs[i] = res.endToEnd()
		}
		wd.Stop()
		fmt.Fprintf(stdout, "workload %s seed=%d\n", def.name, seed)
		for _, d := range endToEndDefs {
			a, b := runs[0][d.name], runs[1][d.name]
			diff := 0.0
			if a != 0 {
				diff = (b - a) / a
			}
			if diff < 0 {
				diff = -diff
			}
			verdict := "ok"
			if diff > d.bound {
				verdict = "EXCEEDS"
				ok = false
			}
			fmt.Fprintf(stdout, "  %-22s %16.6f %16.6f %-10s diff %7.3f%%  bound %5.1f%%  %s\n",
				d.name, a, b, d.unit, 100*diff, 100*d.bound, verdict)
		}
	}
	return ok
}

func run(args []string, stdout io.Writer, sz sizing, all []workloadDef) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run; empty runs all four")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "length of the timed region; it ends with the first step that finishes past it")
	trace := fs.Int("trace", 0, "1 runs the traced pass, the layer probes and the layer ablations, and prints the per-layer metrics")
	traceOut := fs.String("trace-out", "", "file the kept spans are written to (default: spans-<workload>.json beside the executable)")
	agree := fs.Bool("agree", false, "run the untraced pass twice and compare every end-to-end metric against its bound")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the whole invocation to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		return 2
	}
	defs := all
	if *name != "" {
		def, ok := findWorkload(all, *name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		defs = []workloadDef{def}
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	ok := true
	if *agree {
		ok = runAgree(stdout, defs, *seed, *seconds, sz)
	} else {
		for _, def := range defs {
			out := *traceOut
			if out == "" && *trace == 1 {
				exe, err := os.Executable()
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
				out = filepath.Join(filepath.Dir(exe), "spans-"+def.name+".json")
			}
			wd := watchdog(watchdogLimit(*seconds, *trace == 1), def.name)
			ok = runOne(stdout, def, *seed, *seconds, *trace == 1, out, sz) && ok
			wd.Stop()
		}
	}
	if !ok {
		return 1
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, defaultSizing, workloadDefs))
}
