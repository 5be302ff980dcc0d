package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"github.com/mess-sim/mess/internal/bench"
	"github.com/mess-sim/mess/internal/dram"
	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/memmodel"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/sim"
	"github.com/mess-sim/mess/internal/trace"
)

// replaySegment is one phase of the replay trace.
type replaySegment struct {
	mix    bench.Mix
	paceNs float64
}

// replaySegments are the trace's phases: a read-only stream, a 40 %-store
// mix and a non-temporal write burst, each at high and at moderate
// pressure. High pressure is 12 ns/op, not 0: a saturated read or
// non-temporal capture arrives faster than the DRAMsim3-like model
// serves it, so its full replay's latency grows without bound through the
// segment, which no sampled window can see.
var replaySegments = []replaySegment{
	{bench.Mix{StorePercent: 0}, 12}, {bench.Mix{StorePercent: 0}, 48},
	{bench.Mix{StorePercent: 40}, 12}, {bench.Mix{StorePercent: 40}, 48},
	{bench.Mix{StorePercent: 100, NonTemporal: true}, 12}, {bench.Mix{StorePercent: 100, NonTemporal: true}, 48},
}

// segmentGap separates consecutive phases of the assembled trace.
const segmentGap = sim.Microsecond

type replayInst struct {
	spec  platform.Spec
	tr    *trace.Trace
	reads uint64
	name  string // digest name prefix: the trace depends on the seed
	cfg   trace.SampleConfig
}

// setupReplay captures each segment on the detailed DRAM model of the
// Quick-scaled Skylake and concatenates them in an order drawn from the
// seed.
func setupReplay(o options) (instance, error) {
	spec := scaled(platform.Skylake(), 2)
	measure := 120 * sim.Microsecond
	if o.short {
		measure = 12 * sim.Microsecond
	}
	order := rand.New(rand.NewSource(int64(o.seed))).Perm(len(replaySegments))
	r := &replayInst{spec: spec, tr: &trace.Trace{}}
	var names []string
	for _, i := range order {
		seg := replaySegments[i]
		tr, err := captureSegment(spec, seg, measure)
		if err != nil {
			return nil, err
		}
		var off sim.Time
		if n := len(r.tr.Records); n > 0 {
			off = r.tr.Records[n-1].At + segmentGap
		}
		off -= tr.Records[0].At
		for _, rec := range tr.Records {
			rec.At += off
			r.tr.Records = append(r.tr.Records, rec)
			if !rec.Write {
				r.reads++
			}
		}
		names = append(names, strconv.Itoa(i))
	}
	r.name = "replay/order=" + strings.Join(names, "-")
	mapper := dram.NewMapper(&spec.DRAM)
	r.cfg = trace.SampleConfig{Span: 2 * sim.Microsecond, BankRow: mapper.BankRow}
	return r, nil
}

// captureSegment records the memory traffic of one loaded sweep point.
func captureSegment(spec platform.Spec, seg replaySegment, measure sim.Time) (*trace.Trace, error) {
	var c *trace.Capture
	opt := bench.Options{
		Mixes:       []bench.Mix{seg.mix},
		PacesNs:     []float64{seg.paceNs},
		Warmup:      6 * sim.Microsecond,
		Measure:     measure,
		Parallelism: 1, // the point runs after the anchor, so c is the point's capture
		Backend: func(eng *sim.Engine) mem.Backend {
			c = trace.NewCapture(eng, dram.New(eng, spec.DRAM), 0)
			return c
		},
	}
	if _, err := bench.Run(spec, opt); err != nil {
		return nil, fmt.Errorf("capturing %v at %g ns: %w", seg.mix, seg.paceNs, err)
	}
	if len(c.T.Records) == 0 {
		return nil, fmt.Errorf("capturing %v at %g ns: no records", seg.mix, seg.paceNs)
	}
	return &c.T, nil
}

func (r *replayInst) close() error { return nil }

func (r *replayInst) model(eng *sim.Engine) mem.Backend { return memmodel.NewDRAMsim3Like(eng, r.spec) }

// measure runs whole passes: a full replay, then a sampled one, both
// through the DRAMsim3-like model.
func (r *replayInst) measure(ph *phase, b budget) {
	var busy time.Duration
	records := float64(len(r.tr.Records)) / 1e6
	for pass := 0; b.more(pass); pass++ {
		sp := ph.spans.begin("trace.replay", spanRef{})
		t := time.Now()
		eng := sim.New()
		full := trace.Replay(eng, r.model(eng), r.tr)
		d := time.Since(t)
		sp.end()
		busy += d
		ph.a.call(d)
		ph.a.done(records, d.Seconds())
		ph.chk.op(r.name+"/full", r.fullProblems(ph.chk, full))
		ph.add("sim.events", float64(eng.Steps()))

		var engs []*sim.Engine
		mk := func(e *sim.Engine) mem.Backend {
			engs = append(engs, e)
			return r.model(e)
		}
		sp = ph.spans.begin("trace.sampled", spanRef{})
		t = time.Now()
		sam, err := trace.Sampled(mk, r.tr, r.cfg)
		d = time.Since(t)
		sp.end()
		busy += d
		ph.b.call(d)
		ph.b.done(records, d.Seconds())
		ph.chk.op(r.name+"/sampled", r.sampledProblems(ph.chk, sam, err))
		for _, e := range engs {
			ph.add("sim.events", float64(e.Steps()))
		}
		if err == nil {
			ph.add("trace.replayed_records", float64(sam.ReplayedRecords))
			if ph.tel != nil && pass == 0 {
				ph.add("trace.divergence_pct", sam.DivergencePct(full))
				ph.add("trace.speedup_x", sam.SpeedupX)
			}
		}
		ph.addUnits(1)
	}
	ph.add("sim.busy_s", busy.Seconds())
}

// fullProblems checks a full replay: every read record completed, and the
// result matches the pinned digest.
func (r *replayInst) fullProblems(chk *checker, full trace.ReplayResult) []string {
	var problems []string
	if full.Reads != r.reads {
		problems = append(problems, fmt.Sprintf("%d reads completed, the trace has %d", full.Reads, r.reads))
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	text := fmt.Sprintf("bw=%s lat=%s ratio=%s reads=%d", g(full.BWGBs), g(full.ReadLatNs), g(full.ReadRatio), full.Reads)
	return append(problems, chk.digest(r.name+"/full", []byte(text))...)
}

// sampledProblems checks a sampled replay: it covered the whole trace,
// simulated fewer records than the trace holds, and matches the pinned
// digest.
func (r *replayInst) sampledProblems(chk *checker, sam *trace.SampledResult, err error) []string {
	if err != nil {
		return []string{err.Error()}
	}
	var problems []string
	if sam.TotalRecords != len(r.tr.Records) {
		problems = append(problems, fmt.Sprintf("sampled %d records, the trace has %d", sam.TotalRecords, len(r.tr.Records)))
	}
	if sam.ReplayedRecords <= 0 || sam.ReplayedRecords >= sam.TotalRecords {
		problems = append(problems, fmt.Sprintf("replayed %d of %d records", sam.ReplayedRecords, sam.TotalRecords))
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	text := fmt.Sprintf("bw=%s±%s lat=%s±%s reads=%d replayed=%d clusters=%d",
		g(sam.Estimate.BWGBs), g(sam.BWErrGBs), g(sam.Estimate.ReadLatNs), g(sam.LatErrNs),
		sam.Estimate.Reads, sam.ReplayedRecords, len(sam.Clusters))
	return append(problems, chk.digest(r.name+"/sampled", []byte(text))...)
}
