package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"syscall"
	"time"

	"github.com/mess-sim/mess/internal/telemetry"
)

// A run sets its workload up at least minSetups times, and more until
// setupSeconds have passed or maxSetups are done; setup_s is the median,
// and the last instance is the one measured.
const (
	minSetups    = 3
	maxSetups    = 50
	setupSeconds = 2.0
)

// A workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// setup builds a fresh instance: services, servers, captured traces
	// and characterized families, everything the measured phase needs.
	setup func(o options) (instance, error)
	// quota is the fixed amount of work of a traced run, in the units
	// instance.measure counts: whole passes, or requests per client for
	// the store. A fixed amount keeps the traced run's counts identical
	// from run to run.
	quota func(o options) int
}

// An instance is a set-up workload.
type instance interface {
	// measure runs work until the budget is spent, reporting timings,
	// counts and checked outputs into the phase. Failures are counted,
	// never returned: a failed check must not abort the run.
	measure(ph *phase, b budget)
	close() error
}

var allWorkloads = []workload{
	{name: "sweep", setup: setupSweep, quota: func(options) int { return 1 }},
	{name: "cpusim", setup: setupCPUSim, quota: func(options) int { return 4 }},
	{name: "replay", setup: setupReplay, quota: func(options) int { return 6 }},
	{name: "store", setup: setupStore, quota: storeQuota},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(allWorkloads))
	for i, w := range allWorkloads {
		names[i] = w.name
	}
	return names
}

// budget bounds one measured phase: whole units until the deadline (at
// least one), or exactly units when the deadline is zero.
type budget struct {
	deadline time.Time
	units    int
}

// more reports whether a worker that has completed done units starts
// another.
func (b budget) more(done int) bool {
	if b.deadline.IsZero() {
		return done < b.units
	}
	return done == 0 || time.Now().Before(b.deadline)
}

// tally collects one kind of operation: throughput samples, and the host
// time of each call a user waits for.
type tally struct {
	mu    sync.Mutex
	rates []float64 // units of work per host second, one per pass (store: per run)
	ms    []float64 // host milliseconds of each call
}

func (t *tally) call(d time.Duration) {
	t.mu.Lock()
	t.ms = append(t.ms, float64(d.Nanoseconds())/1e6)
	t.mu.Unlock()
}

// done records work units (points, M instructions, M records, requests)
// completed in secs host seconds.
func (t *tally) done(work float64, secs float64) {
	if secs <= 0 {
		return
	}
	t.mu.Lock()
	t.rates = append(t.rates, work/secs)
	t.mu.Unlock()
}

// rate is the median throughput sample: passes slowed by other load on
// the machine move it less than they move a total.
func (t *tally) rate() float64 { return median(t.rates) }

// phase is the state of one measured phase. Every workload has two kinds
// of operation, a and b (see NOTES.md for what they are per workload).
type phase struct {
	chk   *checker
	spans *spanLog       // nil when untraced
	tel   *telemetry.Set // nil when untraced
	a, b  tally

	mu     sync.Mutex
	units  float64            // work units that alloc_mb is normalized by
	counts map[string]float64 // per-layer counts the workload measured
}

func newPhase(chk *checker, traced bool) *phase {
	ph := &phase{chk: chk, counts: map[string]float64{}}
	if traced {
		ph.spans = newSpanLog()
		ph.tel = &telemetry.Set{Metrics: telemetry.NewRegistry(), Tracer: telemetry.NewTracer()}
	}
	return ph
}

// add accumulates a per-layer count.
func (ph *phase) add(name string, v float64) {
	ph.mu.Lock()
	ph.counts[name] += v
	ph.mu.Unlock()
}

func (ph *phase) addUnits(v float64) {
	ph.mu.Lock()
	ph.units += v
	ph.mu.Unlock()
}

// usage is a snapshot of the process's resource counters.
type usage struct {
	wall   time.Time
	cpu    time.Duration // user + system
	alloc  uint64        // cumulative heap bytes allocated
	allocs uint64        // cumulative heap objects allocated
	gcs    uint32
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return usage{
		wall:   time.Now(),
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:  ms.TotalAlloc,
		allocs: ms.Mallocs,
		gcs:    ms.NumGC,
	}
}

// measure sets the workload up several times and measures the last
// instance: for the seconds asked when untraced, or for the workload's
// quota twice — untraced, then traced and CPU-profiled — when traced.
func measure(o options, log io.Writer) (*report, error) {
	w, _ := workloadByName(o.workload)
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	var inst instance
	var setups []float64
	for i, total := 0, 0.0; i < maxSetups && (i < minSetups || total < setupSeconds); i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, fmt.Errorf("%s: closing set-up %d: %w", o.workload, i, err)
			}
		}
		t := time.Now()
		in, err := w.setup(o)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		setups = append(setups, time.Since(t).Seconds())
		total += setups[i]
		inst = in
	}
	chk := newChecker(o, log)
	rep := &report{Metrics: map[string]metric{}}
	var err error
	if o.trace {
		err = measureTraced(o, w, inst, chk, rep)
	} else {
		ph := newPhase(chk, false)
		u0 := readUsage()
		inst.measure(ph, budget{deadline: time.Now().Add(time.Duration(o.seconds * float64(time.Second)))})
		u1 := readUsage()
		endToEnd(rep, ph, u0, u1, median(setups))
	}
	if cerr := inst.close(); err == nil && cerr != nil {
		err = fmt.Errorf("%s: closing: %w", o.workload, cerr)
	}
	if err != nil {
		return nil, err
	}
	rep.Attempted, rep.Failed = chk.totals()
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	return rep, nil
}

// endToEnd fills the end-to-end metrics of an untraced phase.
func endToEnd(rep *report, ph *phase, u0, u1 usage, setupS float64) {
	attempted, failed := ph.chk.totals()
	passRatio := 0.0
	if attempted > 0 {
		passRatio = 1 - float64(failed)/float64(attempted)
	}
	allocMB := 0.0
	if ph.units > 0 {
		allocMB = float64(u1.alloc-u0.alloc) / 1e6 / ph.units
	}
	values := map[string]float64{
		"setup_s":    setupS,
		"a_per_s":    ph.a.rate(),
		"b_per_s":    ph.b.rate(),
		"a_p50_ms":   percentile(ph.a.ms, 50),
		"b_p50_ms":   percentile(ph.b.ms, 50),
		"alloc_mb":   allocMB,
		"pass_ratio": passRatio,
	}
	for _, d := range endToEndMetrics {
		rep.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
}

// measureTraced runs the quota untraced, then traced under the CPU
// profiler, and fills the per-layer metrics.
func measureTraced(o options, w workload, inst instance, chk *checker, rep *report) error {
	quota := w.quota(o)
	ref := newPhase(chk, false)
	r0 := time.Now()
	inst.measure(ref, budget{units: quota})
	refWall := time.Since(r0)

	ph := newPhase(chk, true)
	var prof bytes.Buffer
	u0 := readUsage()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("starting the CPU profile: %w", err)
	}
	inst.measure(ph, budget{units: quota})
	pprof.StopCPUProfile()
	u1 := readUsage()

	layers, total, err := attribute(prof.Bytes())
	if err != nil {
		return err
	}
	values := map[string]float64{}
	for name, v := range ph.counts {
		values[name] = v
	}
	for layer, ns := range layers {
		values[layer+".cpu_s"] = float64(ns) / 1e9
	}
	values["profile.cpu_s"] = float64(total) / 1e9
	for name, spanName := range map[string]string{
		"charz.characterize_ms_p50":     "charz.characterize",
		"curvestore.client_load_ms_p50": "curvestore.client.load",
		"curvestore.server_get_ms_p50":  "curvestore.server.get",
		"curvestore.disk_load_ms_p50":   "curvestore.disk.load",
		"curvestore.save_ms_p50":        "curvestore.client.save",
	} {
		values[name] = median(ph.spans.durationsMs(spanName))
	}
	values["charz.characterize_ms_p99"] = percentile(ph.spans.durationsMs("charz.characterize"), 99)
	values["curvestore.save_ms_p90"] = percentile(ph.spans.durationsMs("curvestore.client.save"), 90)
	values["runtime.gc_cycles"] = float64(u1.gcs - u0.gcs)
	wall := u1.wall.Sub(u0.wall)
	values["traced.overhead_pct"] = 100 * (wall.Seconds()/refWall.Seconds() - 1)
	if ev := values["sim.events"]; ev > 0 {
		values["sim.ns_per_event"] = values["sim.busy_s"] * 1e9 / ev
	}
	if st := values["cpu.steps"]; st > 0 {
		values["cpu.allocs_per_step"] = float64(u1.allocs-u0.allocs) / st
	}
	if values["bench.points"] > 0 {
		values["bench.worker_util"] = (u1.cpu - u0.cpu).Seconds() / (wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	}
	for _, d := range layerMetrics {
		rep.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return ph.spans.write(filepath.Join(o.out, o.workload+"-spans.json"), prof.Bytes(), filepath.Join(o.out, o.workload+"-cpu.pprof"))
}

// percentile interpolates linearly between the order statistics of xs
// (p in [0, 100]); 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }
