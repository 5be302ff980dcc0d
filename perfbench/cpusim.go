package main

import (
	"fmt"
	"strconv"
	"time"

	"github.com/mess-sim/mess/internal/bench"
	"github.com/mess-sim/mess/internal/charz"
	"github.com/mess-sim/mess/internal/core"
	"github.com/mess-sim/mess/internal/cpu"
	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/memmodel"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/sim"
	"github.com/mess-sim/mess/internal/workloads"
)

// coreWidth is the kernel cores' issue width (cpu.CoreConfig's default,
// which workloads.Run keeps).
const coreWidth = 4

// cpuRun is one workloads.Run of the cpusim workload.
type cpuRun struct {
	suite  string // "eval" (kind a) or "spec" (kind b)
	kernel cpu.Kernel
	opt    workloads.Options
}

type cpusimInst struct {
	spec platform.Spec
	fam  *core.Family
	runs []cpuRun
}

// setupCPUSim characterizes the Quick-scaled Skylake (the experiments'
// Quick sweep) for the Mess model and lists the runs: the six-benchmark
// evaluation suite and the 26-entry SPEC-like suite at their LLC hit
// rates.
func setupCPUSim(o options) (instance, error) {
	spec := scaled(platform.Skylake(), 2)
	art, err := charz.New(charz.Config{}).Characterize(charz.Request{Spec: spec, Options: bench.Options{
		Mixes:   []bench.Mix{{StorePercent: 0}, {StorePercent: 40}, {StorePercent: 100}},
		PacesNs: []float64{0, 2, 6, 16, 48, 128, 384},
		Warmup:  6 * sim.Microsecond,
		Measure: 18 * sim.Microsecond,
	}})
	if err != nil {
		return nil, fmt.Errorf("characterizing %s: %w", spec.Name, err)
	}
	c := &cpusimInst{spec: spec, fam: art.Family}
	var base workloads.Options // the package's default windows
	if o.short {
		base.Warmup, base.Measure = 2*sim.Microsecond, 5*sim.Microsecond
	}
	single := base
	single.Cores = 1 // the latency benchmarks run single-core
	for _, k := range []cpu.Kernel{cpu.StreamCopy, cpu.StreamScale, cpu.StreamAdd, cpu.StreamTriad} {
		c.runs = append(c.runs, cpuRun{suite: "eval", kernel: k, opt: base})
	}
	for _, k := range []cpu.Kernel{cpu.LMbench, cpu.Multichase} {
		c.runs = append(c.runs, cpuRun{suite: "eval", kernel: k, opt: single})
	}
	suite := workloads.SpecSuite()
	if o.short {
		suite = suite[len(suite)-4:]
	}
	for _, b := range suite {
		opt := base
		opt.LLCHitRate = b.LLCHitRate
		c.runs = append(c.runs, cpuRun{suite: "spec", kernel: b.Kernel, opt: opt})
	}
	return c, nil
}

func (c *cpusimInst) close() error { return nil }

// measure runs whole passes over both suites, one workloads.Run at a
// time, on the Mess model fed the set-up family.
func (c *cpusimInst) measure(ph *phase, b budget) {
	var busy time.Duration
	for pass := 0; b.more(pass); pass++ {
		var minstr [2]float64
		var took [2]time.Duration
		for _, r := range c.runs {
			h := 0
			if r.suite == "spec" {
				h = 1
			}
			var eng *sim.Engine
			var modelErr error
			opt := r.opt
			opt.Backend = func(e *sim.Engine) mem.Backend {
				eng = e
				m, err := memmodel.New(memmodel.KindMess, e, c.spec, c.fam)
				if err != nil {
					modelErr = err
					return memmodel.NewFixed(e, 0)
				}
				return m
			}
			sp := ph.spans.begin("workloads.run", spanRef{})
			t := time.Now()
			res, err := workloads.Run(c.spec, r.kernel, opt)
			d := time.Since(t)
			sp.end()
			busy += d
			took[h] += d
			if err == nil {
				err = modelErr
			}
			name := "cpusim/" + r.suite + "/" + r.kernel.Name
			ph.chk.op(name, cpuRunProblems(ph.chk, name, c.ipcBound(r), res, err))
			minstr[h] += float64(res.Steps*r.kernel.InstrPerStep()) / 1e6
			ph.add("cpu.steps", float64(res.Steps))
			if eng != nil {
				ph.add("sim.events", float64(eng.Steps()))
			}
		}
		// A call is one suite of a pass.
		for h, t := range []*tally{&ph.a, &ph.b} {
			t.call(took[h])
			t.done(minstr[h], took[h].Seconds())
		}
		ph.addUnits(1)
	}
	ph.add("sim.busy_s", busy.Seconds())
}

// ipcBound is the highest IPC a run may report. A core issues at most
// coreWidth instructions a cycle, but it retires a line-step's
// instructions all at once when the step completes, and the window counts
// the step in flight when it opens. So over the window's cycles C a core
// retires at most coreWidth·C plus one step: IPC ≤ coreWidth + I/C, where
// I is the kernel's instructions per step. Compute-bound SPEC-like runs
// reach 4.00002 and 4.0004 at this width.
func (c *cpusimInst) ipcBound(r cpuRun) float64 {
	measure := r.opt.Measure
	if measure == 0 {
		measure = 40 * sim.Microsecond // workloads.Run's default window
	}
	cycles := float64(measure) / float64(c.spec.CycleTime())
	return coreWidth + float64(r.kernel.InstrPerStep())/cycles
}

// cpuRunProblems checks one run: it made progress, its IPC is within the
// bound the core width sets, and its result matches the pinned digest.
func cpuRunProblems(chk *checker, name string, ipcBound float64, res workloads.Result, err error) []string {
	if err != nil {
		return []string{err.Error()}
	}
	var problems []string
	if !(res.IPC > 0 && res.IPC <= ipcBound) {
		problems = append(problems, fmt.Sprintf("IPC %g outside (0, %g]", res.IPC, ipcBound))
	}
	return append(problems, chk.digest(name, []byte(resultText(res)))...)
}

// resultText renders a result exactly: floats in their shortest
// round-tripping form.
func resultText(r workloads.Result) string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return fmt.Sprintf("%s ipc=%s app=%s mem=%s read=%s steps=%d", r.Name, g(r.IPC), g(r.AppBWGBs), g(r.MemBWGBs), g(r.ReadRatio), r.Steps)
}
