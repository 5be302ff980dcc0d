package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/mess-sim/mess/internal/charz"
	"github.com/mess-sim/mess/internal/workloads"
)

// runShort runs one workload at the reduced size and returns its report.
func runShort(t *testing.T, workload string, traced bool) report {
	t.Helper()
	trace := "0"
	if traced {
		trace = "1"
	}
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--short", "--seconds", "1", "--trace", trace, "--out", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s exited with %d:\n%s", workload, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("%s: last line is not a report: %v", workload, err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d:\n%s", workload, rep.Correct, rep.Attempted, rep.Failed, stderr.String())
	}
	return rep
}

func metricNames(defs []metricDef) map[string]string {
	out := map[string]string{}
	for _, d := range defs {
		out[d.name] = d.unit
	}
	return out
}

func reportUnits(rep report) map[string]string {
	out := map[string]string{}
	for name, m := range rep.Metrics {
		out[name] = m.Unit
	}
	return out
}

func sameMap(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestSmoke runs every workload at the reduced size, untraced and traced:
// every check passes, the end-to-end metrics are positive, and the traced
// run's per-layer CPU times sum to the profile's total.
func TestSmoke(t *testing.T) {
	for _, w := range allWorkloads {
		t.Run(w.name, func(t *testing.T) {
			rep := runShort(t, w.name, false)
			if got, want := reportUnits(rep), metricNames(endToEndMetrics); !sameMap(got, want) {
				t.Errorf("end-to-end metrics %v, want %v", got, want)
			}
			for name, m := range rep.Metrics {
				if !(m.Value > 0) {
					t.Errorf("%s = %v, want > 0", name, m.Value)
				}
			}

			rep = runShort(t, w.name, true)
			if got, want := reportUnits(rep), metricNames(layerMetrics); !sameMap(got, want) {
				t.Errorf("per-layer metrics %v, want %v", got, want)
			}
			var sum float64
			for _, l := range layers {
				sum += rep.Metrics[l+".cpu_s"].Value
			}
			if total := rep.Metrics["profile.cpu_s"].Value; math.Abs(sum-total) > 1e-6 {
				t.Errorf("layer CPU times sum to %v s, the profile holds %v s", sum, total)
			}
		})
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the emitted metrics and the
// workloads in step with BENCHMARK.json.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, the program has %s", got, want)
	}
	for _, c := range []struct {
		label string
		json  []struct{ Name, Unit string }
		defs  []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEndMetrics}, {"per_layer", doc.PerLayer, layerMetrics}} {
		got := map[string]string{}
		for _, m := range c.json {
			got[m.Name] = m.Unit
		}
		if want := metricNames(c.defs); !sameMap(got, want) {
			t.Errorf("BENCHMARK.json %s %v, the program emits %v", c.label, got, want)
		}
	}
}

// passRatio runs the end-to-end metric over a checker's counts.
func passRatio(chk *checker) float64 {
	rep := &report{Metrics: map[string]metric{}}
	endToEnd(rep, &phase{chk: chk}, usage{}, usage{}, 0)
	return rep.Metrics["pass_ratio"].Value
}

// TestCheckerCatchesMutations corrupts outputs of a real short sweep and
// of the other workloads' checks: each corruption must fail its operation
// and lower pass_ratio.
func TestCheckerCatchesMutations(t *testing.T) {
	o := options{workload: "sweep", seed: defaultSeed, short: true}
	inst, err := setupSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	rq := inst.(*sweepInst).reqs[0]
	art, err := charz.New(charz.Config{}).CharacterizeContext(context.Background(), charz.Request{Spec: rq.spec, Options: rq.opt, NeedSamples: true})
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	chk := newChecker(o, &log)
	if problems := sweepProblems(chk, rq, art, nil); len(problems) != 0 {
		t.Fatalf("unmutated sweep has problems: %v", problems)
	}
	if !chk.op(rq.name(), nil) || passRatio(chk) != 1 {
		t.Fatal("a clean operation failed")
	}

	peak := rq.spec.TheoreticalBandwidthGBs()
	aboveRes := *art.Result
	aboveRes.Samples = append(aboveRes.Samples[:0:0], art.Result.Samples...)
	aboveRes.Samples[len(aboveRes.Samples)/2].BWGBs = peak * 1.001
	above := *art
	above.Result = &aboveRes

	belowRes := aboveRes
	belowRes.Samples = append(art.Result.Samples[:0:0], art.Result.Samples...)
	belowRes.Samples[0].LatNs = rq.anchorNs - 20
	below := *art
	below.Result = &belowRes

	corrupt := *art
	corrupt.Family = art.Family.Clone()
	corrupt.Family.Curves[0].Points[1].Latency += 0.01

	for _, m := range []struct {
		name string
		art  *charz.Artifact
	}{{"point above peak", &above}, {"point below the latency floor", &below}, {"corrupted family", &corrupt}} {
		if problems := sweepProblems(chk, rq, m.art, nil); len(problems) == 0 {
			t.Errorf("%s: no problem found", m.name)
		}
	}

	before := passRatio(chk)
	chk.op(rq.name(), sweepProblems(chk, rq, &above, nil))
	if after := passRatio(chk); !(after < before) {
		t.Errorf("pass_ratio %v after a failed check, was %v", after, before)
	}

	res := workloads.Result{Name: "k", IPC: 4.5, Steps: 1}
	if problems := cpuRunProblems(chk, "cpusim/mutation", 4.001, res, nil); len(problems) == 0 {
		t.Error("IPC above the core-width bound: no problem found")
	}
	entry := &storeEntry{csv: []byte("other")}
	entry.req.Spec.Name = "x"
	if problems := lookupProblems(entry, &charz.Artifact{Family: art.Family, Source: charz.SourceRemote}, nil); len(problems) == 0 {
		t.Error("a loaded family differing from its stored CSV: no problem found")
	}
}

// TestDigestRepeat checks the exact-repeat rule: a second, different
// digest under one name is a problem even where nothing is pinned.
func TestDigestRepeat(t *testing.T) {
	chk := newChecker(options{short: true}, &bytes.Buffer{})
	if p := chk.digest("x/unpinned", []byte("a")); len(p) != 0 {
		t.Fatalf("first digest: %v", p)
	}
	if p := chk.digest("x/unpinned", []byte("a")); len(p) != 0 {
		t.Fatalf("repeated digest: %v", p)
	}
	if p := chk.digest("x/unpinned", []byte("b")); len(p) == 0 {
		t.Fatal("a changed digest passed")
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mallocgc", "github.com/mess-sim/mess/internal/dram.(*Channel).decide", "github.com/mess-sim/mess/internal/sim.(*Engine).RunUntil"}, "dram"},
		{[]string{"compress/flate.(*compressor).deflate", "github.com/mess-sim/mess/internal/curvestore.(*Server).get", "net/http.(*conn).serve"}, "curvestore"},
		{[]string{"github.com/mess-sim/mess/internal/workloads.Run"}, "other"},
		{[]string{"syscall.Syscall", "net/http.(*conn).readRequest"}, "net"},
		{[]string{"crypto/sha256.block", "main.(*checker).digest"}, "harness"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
	} {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

func TestSummarizeSelfTime(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Op: 1, Name: "client", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Op: 1, Name: "server", Start: 2 * ms, End: 6 * ms},
		{ID: 3, Parent: 1, Op: 1, Name: "server", Start: 5 * ms, End: 8 * ms},
	}
	sum := summarize(spans)
	if got := sum["client"].SelfMs; got != 4 {
		t.Errorf("client self time %v ms, want 4", got)
	}
	if got := sum["server"].TotalMs; got != 7 {
		t.Errorf("server total %v ms, want 7", got)
	}
}
