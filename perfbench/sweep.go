package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"

	"github.com/mess-sim/mess/internal/bench"
	"github.com/mess-sim/mess/internal/charz"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/sim"
	"github.com/mess-sim/mess/internal/telemetry"
)

// scaled shrinks a platform the way the experiments' Quick scale does:
// cores and channels divided by the same factor.
func scaled(spec platform.Spec, factor int) platform.Spec {
	spec.Cores /= factor
	spec.DRAM.Channels /= factor
	spec.Name += " (scaled)"
	return spec
}

// fullPaces is the 20-step pacing ladder of the experiments' Full scale.
var fullPaces = []float64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768}

// sweepRequest is one characterization request of the sweep workload.
type sweepRequest struct {
	spec     platform.Spec
	half     string // "read" (kind a) or "write" (kind b)
	opt      bench.Options
	anchorNs float64      // unloaded latency, measured at set-up
	lone     bench.Sample // a saturated point, measured alone at set-up
}

func (rq *sweepRequest) name() string { return "sweep/" + rq.spec.Name + "/" + rq.half }

// latencyFloor is the lowest mean latency a point measured from n chase
// samples may report without contradicting the unloaded anchor. A mean of
// n chase loads has a sampling error of σ/√n. Every unloaded load costs
// between a row hit and a row miss, a range of tRP+tRCD, so by
// Popoviciu's inequality σ ≤ (tRP+tRCD)/2. The anchor itself averages
// about Measure/anchor samples. The floor sits three standard errors of
// the difference below the anchor: about 4 ns for the Skylake and 5 ns
// for the A64FX points below, where points have been seen up to 0.2 ns
// under the anchor.
func (rq *sweepRequest) latencyFloor(n uint64) float64 {
	t := rq.spec.DRAM.Timing
	sigma := (t.RP + t.RCD).Nanoseconds() / 2
	nAnchor := math.Floor(rq.opt.Measure.Nanoseconds() / rq.anchorNs)
	if n == 0 || nAnchor < 1 {
		return math.Inf(1)
	}
	return rq.anchorNs - 3*sigma*math.Sqrt(1/nAnchor+1/float64(n))
}

type sweepInst struct{ reqs []*sweepRequest }

// setupSweep builds the four requests — read-dominant and write-heavy
// halves of the full mix density on the Quick-scaled Skylake and A64FX.
// It measures, each on a fresh engine, every platform's unloaded latency
// with the chase alone and one saturated point of each half, which the
// sweep's worker engines must reproduce exactly.
func setupSweep(o options) (instance, error) {
	var read, write []bench.Mix
	for p := 0; p <= 50; p += 10 {
		read = append(read, bench.Mix{StorePercent: p})
	}
	for p := 60; p <= 100; p += 10 {
		write = append(write, bench.Mix{StorePercent: p})
	}
	for _, p := range []int{40, 70, 100} {
		write = append(write, bench.Mix{StorePercent: p, NonTemporal: true})
	}
	paces := fullPaces
	if o.short {
		read = []bench.Mix{{StorePercent: 0}, {StorePercent: 50}}
		write = []bench.Mix{{StorePercent: 100}, {StorePercent: 100, NonTemporal: true}}
		paces = []float64{0, 16, 256}
	}
	s := &sweepInst{}
	for _, spec := range []platform.Spec{scaled(platform.Skylake(), 2), scaled(platform.A64FX(), 4)} {
		base := bench.Options{PacesNs: paces, Warmup: 6 * sim.Microsecond, Measure: 18 * sim.Microsecond}
		anchor, err := bench.MeasureUnloaded(spec, base)
		if err != nil {
			return nil, fmt.Errorf("unloaded latency of %s: %w", spec.Name, err)
		}
		for _, half := range []struct {
			name  string
			mixes []bench.Mix
			lone  bench.Mix
		}{{"read", read, bench.Mix{StorePercent: 0}}, {"write", write, bench.Mix{StorePercent: 100, NonTemporal: true}}} {
			opt := base
			opt.Mixes = half.mixes
			lone, err := bench.MeasurePoint(spec, opt, half.lone, 0)
			if err != nil {
				return nil, fmt.Errorf("%s %v at full pressure: %w", spec.Name, half.lone, err)
			}
			s.reqs = append(s.reqs, &sweepRequest{spec: spec, half: half.name, opt: opt, anchorNs: anchor, lone: lone})
		}
	}
	return s, nil
}

func (s *sweepInst) close() error { return nil }

// measure runs whole passes over the four requests, one at a time, each
// through a fresh characterization service with no store.
func (s *sweepInst) measure(ph *phase, b budget) {
	var rowHit, rowN [2]float64
	var busy time.Duration
	for pass := 0; b.more(pass); pass++ {
		var points [2]float64
		var took [2]time.Duration
		for _, rq := range s.reqs {
			h := 0
			if rq.half == "write" {
				h = 1
			}
			svc := charz.New(charz.Config{Telemetry: ph.tel})
			sp := ph.spans.begin("charz.characterize", spanRef{})
			t := time.Now()
			art, err := svc.CharacterizeContext(context.Background(), charz.Request{Spec: rq.spec, Options: rq.opt, NeedSamples: true})
			d := time.Since(t)
			sp.end()
			busy += d
			took[h] += d
			ph.chk.op(rq.name(), sweepProblems(ph.chk, rq, art, err))
			if err == nil && art.Result != nil {
				points[h] += float64(len(art.Result.Samples) + 1) // + the unloaded anchor
				for _, sm := range art.Result.Samples {
					rowHit[h] += sm.RowHit
					rowN[h]++
				}
			}
		}
		// A call is one half of a pass: both platforms' requests.
		for h, t := range []*tally{&ph.a, &ph.b} {
			t.call(took[h])
			t.done(points[h], took[h].Seconds())
		}
		ph.addUnits(1)
	}
	if ph.tel == nil {
		return
	}
	ph.add("sim.busy_s", busy.Seconds())
	ph.add("bench.points", ph.tel.Registry().Snapshot()["mess_bench_points_total"])
	ph.add("sim.events", sweepEvents(ph.tel.Trace()))
	for h, name := range []string{"dram.row_hit_ratio_read", "dram.row_hit_ratio_write"} {
		if rowN[h] > 0 {
			ph.add(name, rowHit[h]/rowN[h])
		}
	}
}

// sweepProblems checks one characterization: it ran, its release CSV
// matches the pinned digest, its anchor and its saturated point equal the
// ones measured alone at set-up, and every point obeys the analytic
// bounds — bandwidth at most the theoretical peak, latency not below the
// anchor by more than the chase's sampling error.
func sweepProblems(chk *checker, rq *sweepRequest, art *charz.Artifact, err error) []string {
	if err != nil {
		return []string{err.Error()}
	}
	if art.Result == nil || art.Family == nil || len(art.Family.Curves) == 0 {
		return []string{"no samples or family returned"}
	}
	var problems []string
	if art.Source != charz.SourceRun {
		problems = append(problems, fmt.Sprintf("served from %v, want a fresh run", art.Source))
	}
	var csv bytes.Buffer
	if err := art.Family.WriteCSV(&csv); err != nil {
		return append(problems, err.Error())
	}
	problems = append(problems, chk.digest(rq.name(), csv.Bytes())...)
	if got := art.Family.Curves[0].Points[0].Latency; got != rq.anchorNs {
		problems = append(problems, fmt.Sprintf("family anchor %.4f ns differs from the unloaded chase %.4f ns", got, rq.anchorNs))
	}
	found := false
	for _, sm := range art.Result.Samples {
		if sm.Mix == rq.lone.Mix && sm.PaceNs == rq.lone.PaceNs {
			found = true
			if sm != rq.lone {
				problems = append(problems, fmt.Sprintf("%v pace 0: %+v in the sweep, %+v measured alone", sm.Mix, sm, rq.lone))
			}
		}
	}
	if !found {
		problems = append(problems, fmt.Sprintf("no %v pace 0 point in the sweep", rq.lone.Mix))
	}
	problems = append(problems, boundProblems(rq, art.Result.Samples)...)
	return problems
}

func boundProblems(rq *sweepRequest, samples []bench.Sample) []string {
	var problems []string
	peak := rq.spec.TheoreticalBandwidthGBs()
	for _, sm := range samples {
		if sm.BWGBs > peak {
			problems = append(problems, fmt.Sprintf("%v pace %g: %.3f GB/s above the %.3f GB/s peak", sm.Mix, sm.PaceNs, sm.BWGBs, peak))
		}
		if floor := rq.latencyFloor(sm.ChaseSamples); sm.LatNs < floor {
			problems = append(problems, fmt.Sprintf("%v pace %g: %.3f ns below the %.3f ns floor (anchor %.3f ns, %d chase samples)",
				sm.Mix, sm.PaceNs, sm.LatNs, floor, rq.anchorNs, sm.ChaseSamples))
		}
	}
	return problems
}

// sweepEvents sums the simulation events the bench sweeps recorded on
// their "sweep <platform>" spans.
func sweepEvents(tr *telemetry.Tracer) float64 {
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		return 0
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return 0
	}
	var events float64
	for _, ev := range doc.TraceEvents {
		if strings.HasPrefix(ev.Name, "sweep ") {
			n, _ := ev.Args["events"].(float64)
			events += n
		}
	}
	return events
}
