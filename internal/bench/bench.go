// Package bench orchestrates the Mess benchmark (Sec. II): one pointer-chase
// core measures load-to-use latency while the remaining cores run paced
// traffic generators; sweeping the generator pacing and the load/store mix
// produces the platform's family of bandwidth–latency curves.
//
// The runner works against any memory backend — the detailed DRAM model
// (standing in for actual hardware) or any model from the zoo — which is
// exactly how the paper uses the benchmark to characterize both servers
// (Sec. III) and simulators (Sec. IV).
package bench

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mess-sim/mess/internal/cache"
	"github.com/mess-sim/mess/internal/core"
	"github.com/mess-sim/mess/internal/cpu"
	"github.com/mess-sim/mess/internal/dram"
	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/sim"
	"github.com/mess-sim/mess/internal/telemetry"
)

// Mix is one traffic composition of the sweep: the percentage of kernel
// memory instructions that are stores and whether stores are non-temporal.
// Regular stores on write-allocate systems produce read ratios in [0.5, 1];
// non-temporal stores reach the write-heavy half of the space.
type Mix struct {
	StorePercent int
	NonTemporal  bool
}

func (m Mix) String() string {
	nt := ""
	if m.NonTemporal {
		nt = " (NT)"
	}
	return fmt.Sprintf("%d%% stores%s", m.StorePercent, nt)
}

// Options configure a benchmark run.
type Options struct {
	// Mixes to sweep. Default: store percentages 0..100 in steps of 20
	// with regular stores (read ratios 1.0 → 0.5).
	Mixes []Mix
	// PacesNs is the per-op pacing sweep in nanoseconds (the nopCount
	// knob). Default: a log-spaced ladder from 0 (full pressure) to 512.
	PacesNs []float64
	// Warmup and Measure are the simulated durations of the warm-up and
	// measurement windows for every point.
	Warmup  sim.Time
	Measure sim.Time
	// ChaseLines is the pointer-chase array size in cache lines (power of
	// two).
	ChaseLines uint64
	// ArrayBytes is the per-generator array length.
	ArrayBytes uint64
	// Parallelism bounds concurrent measurement points (each point owns an
	// engine). Default: GOMAXPROCS.
	Parallelism int
	// Backend overrides the memory system under test; nil uses the
	// platform's detailed DRAM model.
	Backend mem.BackendFactory
	// Cache overrides the platform's derived cache configuration — used
	// for failure injection (e.g. the OpenPiton clean-eviction bug).
	Cache *cache.Config
	// Telemetry, when set, observes the run: per-point spans on its
	// tracer, sweep counters and throughput on its registry. Observation
	// never changes results (the determinism tests run with it attached),
	// so it is execution-only and cleared by Normalized.
	Telemetry *telemetry.Set
}

func (o *Options) withDefaults() Options {
	out := *o
	if len(out.Mixes) == 0 {
		for s := 0; s <= 100; s += 20 {
			out.Mixes = append(out.Mixes, Mix{StorePercent: s})
		}
	}
	if len(out.PacesNs) == 0 {
		out.PacesNs = []float64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512}
	}
	if out.Warmup == 0 {
		out.Warmup = 20 * sim.Microsecond
	}
	if out.Measure == 0 {
		out.Measure = 50 * sim.Microsecond
	}
	if out.ChaseLines == 0 {
		out.ChaseLines = 1 << 19 // 32 MiB: far beyond any LLC
	}
	if out.ArrayBytes == 0 {
		out.ArrayBytes = 32 << 20
	}
	if out.Parallelism == 0 {
		out.Parallelism = runtime.GOMAXPROCS(0)
	}
	return out
}

// Normalized returns the options with every sweep-defining field filled
// with its default and every execution-only knob cleared. Two Options
// values describing the same sweep normalize to the same value regardless
// of the host, which is what makes them usable as cache-key material:
// Parallelism (a host-dependent execution bound) is zeroed, and Backend (a
// function value with no stable identity) is dropped — callers that swap
// the backend must carry its identity in the cache key themselves.
func (o Options) Normalized() Options {
	out := o.withDefaults()
	out.Parallelism = 0
	out.Backend = nil
	out.Telemetry = nil
	return out
}

// Sample is one measurement point.
type Sample struct {
	Mix     Mix
	PaceNs  float64
	BWGBs   float64
	LatNs   float64
	RdRatio float64
	// Row-buffer statistics over the measurement window, when the backend
	// exposes them (fractions; zero otherwise).
	RowHit, RowEmpty, RowMiss float64
	ChaseSamples              uint64
}

// Result is a complete benchmark run.
type Result struct {
	Spec    platform.Spec
	Family  *core.Family
	Samples []Sample
}

// rowStatser is implemented by backends that expose row-buffer counters.
type rowStatser interface{ RowStats() dram.RowStats }

// Run executes the sweep for the platform and assembles the curve family.
//
// Points are distributed over a pool of Parallelism workers. Each worker
// owns one simulation engine for the whole sweep and Resets it between
// points, so the kernel's event pool, wheel buckets and overflow heap stay
// warm instead of being rebuilt (and re-grown) for every measurement. Each
// point still simulates in complete isolation — Reset restores the engine
// to its initial state — so results are independent of how points map onto
// workers.
func Run(spec platform.Spec, opt Options) (*Result, error) {
	return RunContext(context.Background(), spec, opt)
}

// RunContext is Run under a caller-supplied context. A measurement point
// is atomic — the simulation kernel has no preemption points — so
// cancellation is observed at point boundaries: the feeder stops handing
// out jobs, each worker finishes (at most) the point it is on and drains,
// and RunContext returns ctx.Err(). Worst-case cancellation latency is
// therefore one sweep point per worker, which QuickOptions-sized points
// keep in the tens of milliseconds.
func RunContext(ctx context.Context, spec platform.Spec, opt Options) (*Result, error) {
	o := opt.withDefaults()
	// Job 0 is the unloaded anchor: the pointer chase alone, as the paper
	// measures the unloaded latency (validated against LMbench/multichase).
	// It becomes the first point of every curve.
	type job struct{ mixIdx, paceIdx int } // mixIdx < 0: unloaded anchor
	jobs := make([]job, 0, len(o.Mixes)*len(o.PacesNs)+1)
	jobs = append(jobs, job{-1, -1})
	for mi := range o.Mixes {
		for pi := range o.PacesNs {
			jobs = append(jobs, job{mi, pi})
		}
	}
	samples := make([]Sample, len(jobs))
	errs := make([]error, len(jobs))

	workers := o.Parallelism
	if workers < 1 {
		workers = 1 // a nonsensical Parallelism must not starve the feed
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	// Telemetry is pure observation: nil-safe metric handles and tracer
	// calls, so the uninstrumented path pays a few nil checks per point.
	tr := o.Telemetry.Trace()
	reg := o.Telemetry.Registry()
	pointsC := reg.Counter("mess_bench_points_total", "benchmark sweep points simulated")
	var totalSteps atomic.Uint64
	wallStart := time.Now()
	var sweepSpan telemetry.SpanTimer
	if tr != nil {
		sweepSpan = tr.Begin(tr.NewTrack("bench", "sweep"), "sweep "+spec.Name)
	}

	feed := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		var track telemetry.Track
		if tr != nil {
			track = tr.NewTrack("bench", fmt.Sprintf("worker-%d", w))
		}
		go func() {
			defer wg.Done()
			// Each worker owns one engine for the whole sweep and Resets it
			// between points.
			eng := sim.New()
			for ji := range feed {
				if ctx.Err() != nil {
					// Cancelled while this job was already handed out: skip
					// the simulation but keep draining the feed so the
					// feeder never blocks.
					continue
				}
				eng.Reset()
				j := jobs[ji]
				if j.mixIdx < 0 {
					samples[ji], errs[ji] = measureWith(eng, spec, o, track, Mix{}, 0, 0)
				} else {
					samples[ji], errs[ji] = measureWith(eng, spec, o, track, o.Mixes[j.mixIdx], o.PacesNs[j.paceIdx], spec.Cores-1)
				}
				pointsC.Inc()
				totalSteps.Add(eng.Steps())
			}
		}()
	}
feedLoop:
	for ji := range jobs {
		select {
		case feed <- ji:
		case <-ctx.Done():
			break feedLoop
		}
	}
	close(feed)
	wg.Wait()
	if el := time.Since(wallStart).Seconds(); el > 0 {
		reg.Gauge("mess_bench_events_per_second", "simulation events executed per wall-clock second, last sweep").
			Set(float64(totalSteps.Load()) / el)
	}
	sweepSpan.End(telemetry.Int("points", int64(len(jobs))), telemetry.Int("events", int64(totalSteps.Load())))
	o.Telemetry.Logger().Debug("bench sweep done",
		"spec", spec.Name, "points", len(jobs), "events", totalSteps.Load(),
		"elapsed", time.Since(wallStart).Round(time.Millisecond))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	fam := assemble(spec, o, samples[1:], samples[0])
	return &Result{Spec: spec, Family: fam, Samples: samples[1:]}, nil
}

// MeasurePoint simulates one fully-loaded sweep point on its own engine and
// reports its sample — the interactive "explore this configuration now"
// case. Generators occupy every core but the chaser's.
func MeasurePoint(spec platform.Spec, opt Options, mix Mix, paceNs float64) (Sample, error) {
	o := opt.withDefaults()
	var track telemetry.Track
	if tr := o.Telemetry.Trace(); tr != nil {
		track = tr.NewTrack("bench", "point")
	}
	return measureWith(sim.New(), spec, o, track, mix, paceNs, spec.Cores-1)
}

// MeasureUnloaded runs only the pointer chase and reports the unloaded
// load-to-use latency — the LMbench/multichase validation measurement.
func MeasureUnloaded(spec platform.Spec, opt Options) (float64, error) {
	o := opt.withDefaults()
	s, err := measureWith(sim.New(), spec, o, telemetry.Track{}, Mix{}, 0, 0) // zero generators
	if err != nil {
		return 0, err
	}
	return s.LatNs, nil
}

// measureWith simulates one sweep point on the given engine, which must be
// fresh or Reset.
func measureWith(eng *sim.Engine, spec platform.Spec, o Options, track telemetry.Track, mix Mix, paceNs float64, generators int) (Sample, error) {
	tr := o.Telemetry.Trace()
	var sp telemetry.SpanTimer
	if tr != nil {
		sp = tr.Begin(track, pointName(mix, paceNs, generators))
	}
	var backend mem.Backend
	if o.Backend != nil {
		backend = o.Backend(eng)
	} else {
		backend = dram.New(eng, spec.DRAM)
	}
	counting := mem.NewCounting(backend)
	ccfg := spec.CacheConfig()
	if o.Cache != nil {
		ccfg = *o.Cache
	}
	hier := cache.New(eng, ccfg, counting)

	// Pointer chaser on core 0, in its own address region.
	const chaseBase = 1 << 40
	chaser := cpu.NewChaser(eng, hier.Port(0), chaseBase, o.ChaseLines, 12345)
	chaser.Start()

	// Traffic generators on the remaining cores. Each core gets disjoint
	// load/store arrays; bases are staggered by an extra bank-sized offset
	// so concurrent streams spread across banks like distinct allocations.
	gens := make([]*cpu.Generator, 0, generators)
	for g := 0; g < generators; g++ {
		base := uint64(1)<<33 + uint64(g)*(1<<28+16<<10)
		gen := cpu.NewGenerator(eng, hier.Port(g+1), cpu.GenConfig{
			StorePercent: mix.StorePercent,
			NonTemporal:  mix.NonTemporal,
			PacePerOp:    sim.FromNanoseconds(paceNs),
			LoadBase:     base,
			StoreBase:    base + 1<<27 + 32<<10,
			ArrayBytes:   o.ArrayBytes,
		})
		gen.Start()
		gens = append(gens, gen)
	}

	// Warm up, then measure over a counter delta.
	eng.RunUntil(o.Warmup)
	chaser.ResetStats()
	c0 := counting.Snapshot()
	var rs0 dram.RowStats
	statser, hasRows := backend.(rowStatser)
	if hasRows {
		rs0 = statser.RowStats()
	}
	t0 := eng.Now()

	eng.RunUntil(o.Warmup + o.Measure)
	c1 := counting.Snapshot()
	t1 := eng.Now()
	lat, n := chaser.MeanLatency()
	if n == 0 {
		return Sample{}, fmt.Errorf("bench: %s mix %v pace %.1f ns: chaser recorded no samples", spec.Name, mix, paceNs)
	}

	delta := c1.Sub(c0)
	s := Sample{
		Mix:          mix,
		PaceNs:       paceNs,
		BWGBs:        delta.BandwidthGBs(t1 - t0),
		LatNs:        lat.Nanoseconds(),
		RdRatio:      delta.ReadRatio(),
		ChaseSamples: n,
	}
	if hasRows {
		hit, empty, miss := statser.RowStats().Sub(rs0).Ratios()
		s.RowHit, s.RowEmpty, s.RowMiss = hit, empty, miss
	}
	for _, g := range gens {
		g.Stop()
	}
	chaser.Stop()
	sp.End(telemetry.Float("bw_gbs", s.BWGBs), telemetry.Float("lat_ns", s.LatNs))
	return s, nil
}

// pointName labels one sweep point for tracing: stable across runs of the
// same sweep, unique within it.
func pointName(mix Mix, paceNs float64, generators int) string {
	if generators == 0 {
		return "point unloaded"
	}
	nt := ""
	if mix.NonTemporal {
		nt = "nt"
	}
	return fmt.Sprintf("point s%d%s p%g", mix.StorePercent, nt, paceNs)
}

// assemble groups samples by mix into curves ordered by injection pressure
// (descending pace), sanitizes them, and tags each curve with the measured
// read ratio. Every curve starts at the unloaded anchor.
func assemble(spec platform.Spec, o Options, samples []Sample, unloaded Sample) *core.Family {
	fam := &core.Family{
		Label:         spec.Name,
		TheoreticalBW: spec.TheoreticalBandwidthGBs(),
	}
	for _, mix := range o.Mixes {
		pts := []core.Point{{BW: unloaded.BWGBs, Latency: unloaded.LatNs}}
		var ratioSum float64
		var cnt int
		// Pressure ascends as pace descends.
		ordered := make([]Sample, 0, len(o.PacesNs))
		for _, s := range samples {
			if s.Mix == mix {
				ordered = append(ordered, s)
			}
		}
		sort.Slice(ordered, func(i, j int) bool { return ordered[i].PaceNs > ordered[j].PaceNs })
		for _, s := range ordered {
			if s.BWGBs <= unloaded.BWGBs {
				// A paced point below the anchor carries no information.
				continue
			}
			pts = append(pts, core.Point{BW: s.BWGBs, Latency: s.LatNs})
			ratioSum += s.RdRatio
			cnt++
		}
		if cnt == 0 {
			continue
		}
		pts = core.SanitizePoints(pts)
		if len(pts) < 2 {
			continue
		}
		fam.Curves = append(fam.Curves, core.Curve{
			ReadRatio: ratioSum / float64(cnt),
			Points:    pts,
		})
	}
	fam.Sort()
	return fam
}

// QuickOptions returns a reduced sweep suitable for tests: three mixes,
// a coarse pacing ladder and short windows.
func QuickOptions() Options {
	return Options{
		Mixes:   []Mix{{StorePercent: 0}, {StorePercent: 50}, {StorePercent: 100}},
		PacesNs: []float64{0, 4, 16, 64, 256},
		Warmup:  5 * sim.Microsecond,
		Measure: 15 * sim.Microsecond,
	}
}
