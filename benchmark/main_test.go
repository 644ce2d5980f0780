package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// tinySizing shrinks every part of the benchmark so the whole smoke
// test stays in seconds under the race detector.
var tinySizing = sizing{
	stormSched: 1 << 10, readsSched: 1 << 12, auditSched: 1 << 10,
	stormWarmRounds: 2, readsWarmRounds: 1,
	auditOps: 96, auditBlock: 64,
	chaosPhases: 4, chaosEpisode: 2, chaosPhaseOps: 300, chaosBlock: 150, chaosWarmPhases: 1,
	setups:       1,
	ablateRounds: 10,
	probeScale:   0.002,
}

// benchmarkJSON mirrors the keys of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

// runReport runs the benchmark in-process and parses the JSON report on
// the last line of its output.
func runReport(t *testing.T, defs []workloadDef, args ...string) (int, report, string) {
	t.Helper()
	var out bytes.Buffer
	code := run(args, &out, tinySizing, defs)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("last line is not a report: %v\n%s", err, out.String())
	}
	return code, rep, out.String()
}

var scheduleRE = regexp.MustCompile(`schedule=([0-9a-f]{16})`)

func scheduleHash(t *testing.T, output string) string {
	t.Helper()
	m := scheduleRE.FindStringSubmatch(output)
	if m == nil {
		t.Fatalf("no schedule hash in header:\n%s", output)
	}
	return m[1]
}

// TestSpecMatchesCode holds BENCHMARK.json and the tables the binary
// prints from equal: same workloads, same metrics, same units, same
// directions and bounds, in the same order.
func TestSpecMatchesCode(t *testing.T) {
	spec := loadBenchmarkJSON(t)
	if len(spec.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the binary has %d", len(spec.Workloads), len(workloadDefs))
	}
	for i, d := range workloadDefs {
		if w := spec.Workloads[i]; w.Name != d.name || w.Why != d.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the binary %q (%q)", i, w.Name, w.Why, d.name, d.why)
		}
	}
	if len(spec.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the binary has %d", len(spec.EndToEnd), len(endToEndDefs))
	}
	for i, d := range endToEndDefs {
		if m := spec.EndToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the binary %+v", i, m, d)
		}
	}
	layer := perLayerDefs()
	if len(spec.PerLayer) != len(layer) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the binary has %d", len(spec.PerLayer), len(layer))
	}
	for i, d := range layer {
		if m := spec.PerLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the binary %+v", i, m, d)
		}
	}
}

// TestSpecWithinContract checks BENCHMARK.json against the limits the
// harness refuses a file for.
func TestSpecWithinContract(t *testing.T) {
	spec := loadBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("unit %q of %s is malformed", u, n)
		}
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range spec.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s is %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range spec.PerLayer {
		check(m.Name, m.Unit)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	// 4 + 22 runs per workload, each run_seconds plus set-up and checks.
	if total := (4 + 22*len(spec.Workloads)) * (spec.RunSeconds + 8); total > 3000 {
		t.Errorf("the harness's runs would take about %d s", total)
	}
}

// TestSmoke runs all four workloads untraced and one traced, and checks
// the printed metric names against BENCHMARK.json, the exact counts of
// pram_storm at seed 1, and that every output check passed.
func TestSmoke(t *testing.T) {
	spec := loadBenchmarkJSON(t)
	for _, w := range spec.Workloads {
		if w.Name == "chaos_adaptive" {
			// Everything that builds a coalescing cluster has to run
			// before the first chaos_adaptive pass of the process; see
			// tracedLedger.
			smokeTraced(t, spec)
		}
		code, rep, out := runReport(t, workloadDefs, "-workload", w.Name, "-seed", "1", "-seconds", "0.01", "-trace", "0")
		if code != 0 || !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Fatalf("%s: exit %d, report %+v\n%s", w.Name, code, rep, out)
		}
		if !strings.Contains(out, "check_failures=0 ") {
			t.Errorf("%s: check failures:\n%s", w.Name, out)
		}
		if len(rep.Metrics) != len(spec.EndToEnd) {
			t.Errorf("%s printed %d metrics, BENCHMARK.json names %d", w.Name, len(rep.Metrics), len(spec.EndToEnd))
		}
		for _, m := range spec.EndToEnd {
			got, ok := rep.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s: metric %s missing or in unit %q, want %q", w.Name, m.Name, got.Unit, m.Unit)
			}
			if got.Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
			}
		}
		if w.Name == "pram_storm" {
			for name, want := range map[string]float64{
				"msgs_per_op": 3, "ctrl_bytes_per_op": 36, "data_bytes_per_op": 24,
				"touch_ratio": 1, "granted_op_share": 1,
			} {
				if got := rep.Metrics[name].Value; got != want {
					t.Errorf("pram_storm %s = %v, want exactly %v", name, got, want)
				}
			}
		}
	}
}

// smokeTraced runs zipf_reads with -trace 1 and checks the per-layer
// metric names and the span file.
func smokeTraced(t *testing.T, spec benchmarkJSON) {
	t.Helper()
	spans := filepath.Join(t.TempDir(), "spans.json")
	code, rep, out := runReport(t, workloadDefs, "-workload", "zipf_reads", "-seed", "1", "-seconds", "0.04", "-trace", "1", "-trace-out", spans)
	if code != 0 || !rep.Correct || rep.Failed != 0 {
		t.Fatalf("traced run: exit %d, report %+v\n%s", code, rep, out)
	}
	if len(rep.Metrics) != len(spec.PerLayer) {
		t.Errorf("traced run printed %d metrics, BENCHMARK.json names %d", len(rep.Metrics), len(spec.PerLayer))
	}
	for _, m := range spec.PerLayer {
		if got, ok := rep.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("traced run: metric %s missing or in unit %q, want %q", m.Name, got.Unit, m.Unit)
		}
	}
	for _, name := range []string{"facade.get_ns_p50", "facade.put_ns_p50", "netsim.sharded.send_ns", "ablate.base_ns_per_op", "mcs.pram.msgs_per_op", "policy.tick_us_p50"} {
		if rep.Metrics[name].Value <= 0 {
			t.Errorf("traced run: %s = %v", name, rep.Metrics[name].Value)
		}
	}
	raw, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Spans []struct {
			Name   string `json:"name"`
			Parent int    `json:"parent"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("span file: %v", err)
	}
	if len(file.Spans) < 3 || file.Spans[0].Name != "run" || file.Spans[0].Parent != -1 {
		t.Errorf("span file holds %d spans, first %+v", len(file.Spans), file.Spans[0])
	}
}

// TestScheduleFollowsSeed: same seed, same inputs; another seed,
// other inputs.
func TestScheduleFollowsSeed(t *testing.T) {
	hash := func(seed string) string {
		_, _, out := runReport(t, workloadDefs, "-workload", "pram_storm", "-seed", seed, "-seconds", "0.01")
		return scheduleHash(t, out)
	}
	a, b, c := hash("1"), hash("1"), hash("7")
	if a != b {
		t.Errorf("seed 1 gave schedules %s and %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 1 and 7 gave the same schedule %s", a)
	}
}

// TestFailedVerdictFailsTheRun doctors proto_audit's input to the
// trace verifier — one read in every exported trace returns a value
// nobody wrote — and expects the verdicts to be counted and the exit
// code raised.
func TestFailedVerdictFailsTheRun(t *testing.T) {
	read := regexp.MustCompile(`("read": true,\s*"var": "x\d+",\s*"val": )\d+`)
	doctored := []workloadDef{{name: "proto_audit", why: "doctored", make: func() scenario {
		return &audit{corrupt: func(blob []byte) []byte {
			loc := read.FindSubmatchIndex(blob)
			if loc == nil {
				return blob // an episode whose reads all returned ⊥
			}
			return append(append(append([]byte(nil), blob[:loc[3]]...), "4242424242"...), blob[loc[1]:]...)
		}}
	}}}
	code, rep, out := runReport(t, doctored, "-workload", "proto_audit", "-seed", "1", "-seconds", "0.01")
	if code != 1 || rep.Correct {
		t.Fatalf("doctored run: exit %d, correct %v\n%s", code, rep.Correct, out)
	}
	if !strings.Contains(out, "CHECK FAILED") || !strings.Contains(out, "exported trace") {
		t.Errorf("doctored run does not name the failed verdict:\n%s", out)
	}
}

// TestAgree runs -agree on one workload; with a generous budget of two
// tiny passes the only thing asserted is that it prints every metric
// beside its bound.
func TestAgree(t *testing.T) {
	var out bytes.Buffer
	run([]string{"-workload", "pram_storm", "-agree", "-seconds", "0.01"}, &out, tinySizing, workloadDefs)
	for _, d := range endToEndDefs {
		if !strings.Contains(out.String(), d.name) {
			t.Errorf("-agree does not print %s:\n%s", d.name, out.String())
		}
	}
	if !strings.Contains(out.String(), "bound") {
		t.Errorf("-agree prints no bounds:\n%s", out.String())
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"}, {"-seconds", "0"}, {"-trace", "2"}, {"stray"},
	} {
		if code := run(args, &bytes.Buffer{}, tinySizing, workloadDefs); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

// TestWatchdog re-executes the test binary with a watchdog armed over
// a body that never returns, and expects a goroutine dump and exit
// code 3 instead of a hang.
func TestWatchdog(t *testing.T) {
	if os.Getenv("BENCHMARK_TEST_HANG") == "1" {
		watchdog(50*time.Millisecond, "hang")
		time.Sleep(time.Hour)
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestWatchdog$")
	cmd.Env = append(os.Environ(), "BENCHMARK_TEST_HANG=1")
	out, err := cmd.CombinedOutput()
	exit, ok := err.(*exec.ExitError)
	if !ok || exit.ExitCode() != 3 {
		t.Fatalf("hung run ended with %v, want exit code 3\n%s", err, out)
	}
	if !strings.Contains(string(out), "still running after") || !strings.Contains(string(out), "goroutine") {
		t.Errorf("no goroutine dump:\n%s", out)
	}
}
