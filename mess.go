// Package mess is the public API of Mess-Go, a Go reproduction of the Mess
// framework ("A Mess of Memory System Benchmarking, Simulation and
// Application Profiling", MICRO 2024): unified memory-system benchmarking,
// analytical simulation and application profiling built around families of
// bandwidth–latency curves.
//
// The three framework components map to three entry points:
//
//   - Characterize runs the Mess benchmark (pointer-chase + traffic
//     generators) against a simulated platform and returns its curve
//     family;
//   - NewSimulator builds the Mess analytical memory simulator from a
//     curve family, usable as a memory backend under any CPU model;
//   - BuildProfile positions an application's sampled memory traffic on a
//     curve family and derives memory stress scores.
//
// Everything runs on a deterministic discrete-event substrate: cycle-level
// DDR4/DDR5/HBM2 channels, write-allocate cache translation and MSHR-
// limited cores, configured to mirror the paper's eight platforms.
//
// # The simulation kernel
//
// Every timed model shares one event kernel (Engine), built for the
// millions of short-horizon events a single curve point generates: event
// records are pooled and recycled (steady-state scheduling allocates
// nothing), near-future deadlines route through a timer wheel with an
// occupancy bitmap while only far events pay for a heap, and Cancel is an
// O(1) tombstone made safe by generation-counted handles. Steady-rate
// components re-arm a SimTimer or SimTicker in place instead of scheduling
// fresh closures. The kernel guarantees deterministic execution — events
// fire in exact (deadline, schedule order), so identical runs produce
// byte-identical curve CSVs — and Engine.Reset lets harnesses reuse one
// warm engine across simulations.
//
// Memory transactions follow the same discipline: MemRequest records come
// from a MemRequestPool free list, completion is a stored Done(at, req)
// callback rather than a captured closure, and the backend releases each
// record back to its pool when it completes — so the steady-state access
// path of every memory model issues and completes at 0 allocs/op. Speed
// and allocation behaviour are tracked: `go test -bench=Kernel` benchmarks
// the kernel against the pre-wheel heap baseline, and cmd/messperf records
// the trajectory (events/sec and allocs/op) in BENCH_sim.json, which CI
// gates against the committed artifact.
//
// # The characterization service
//
// Producing a curve family means running the full benchmark sweep — the
// most expensive operation in the framework — yet benchmarking, simulator
// evaluation and profiling all keep asking for the same families. Every
// characterization therefore flows through a shared service
// (NewCharacterizationService) that content-addresses each request by a
// SHA-256 fingerprint of the platform spec and normalized sweep options,
// memoizes results in memory with singleflight deduplication (concurrent
// requests for one key run one simulation), optionally persists families
// to disk in the release CSV format (sharded by key prefix, with optional
// size-bounded LRU eviction), and fans batches out over a bounded worker
// pool. A further remote tier (NewRemoteCurveStore, or $MESS_CURVE_URL)
// shares families fleet-wide through a cmd/messcurved curve server —
// consulted after the local tiers, promoted into them on hit, uploaded to
// after a fresh run, and entirely fail-soft: a down server degrades to
// local operation, never to an error. Package-level Characterize and
// RunExperiment share one
// default in-process service, so repeated calls — and a full experiment
// registry run — perform each unique characterization exactly once;
// RunExperimentWith threads a caller-owned service (e.g. one backed by an
// on-disk store) through the experiment registry instead.
package mess

import (
	"context"
	"io"
	"os"

	"github.com/mess-sim/mess/internal/bench"
	"github.com/mess-sim/mess/internal/charz"
	"github.com/mess-sim/mess/internal/core"
	"github.com/mess-sim/mess/internal/curvestore"
	"github.com/mess-sim/mess/internal/cxl"
	"github.com/mess-sim/mess/internal/exp"
	"github.com/mess-sim/mess/internal/mem"
	"github.com/mess-sim/mess/internal/messsim"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/plot"
	"github.com/mess-sim/mess/internal/profile"
	"github.com/mess-sim/mess/internal/sim"
)

// Core curve types. The bandwidth–latency family is the framework's
// central artifact; see the core package for the full method set
// (LatencyAt, Metrics, StressScore, …).
type (
	// Point is one (bandwidth GB/s, latency ns) measurement.
	Point = core.Point
	// Curve is a bandwidth–latency curve at one read/write composition.
	Curve = core.Curve
	// Family is a set of curves spanning read/write compositions.
	Family = core.Family
	// Metrics are the derived Table-I quantities.
	Metrics = core.Metrics
	// StressWeights parameterize the memory stress score.
	StressWeights = core.StressWeights
)

// DefaultStressWeights are the paper's stress-score weights.
var DefaultStressWeights = core.DefaultStressWeights

// Platform is a simulated machine specification.
type Platform = platform.Spec

// Pre-configured platforms of the paper's Table I.
var (
	Skylake        = platform.Skylake
	CascadeLake    = platform.CascadeLake
	Zen2           = platform.Zen2
	Power9         = platform.Power9
	Graviton3      = platform.Graviton3
	SapphireRapids = platform.SapphireRapids
	A64FX          = platform.A64FX
	H100           = platform.H100
)

// Platforms returns all Table-I platform specifications.
func Platforms() []Platform { return platform.All() }

// PlatformByName looks a platform up by its display name.
func PlatformByName(name string) (Platform, error) { return platform.ByName(name) }

// BenchmarkOptions configure Characterize; the zero value uses the full
// default sweep. See bench.Options for all knobs.
type BenchmarkOptions = bench.Options

// TrafficMix selects one kernel composition of the sweep.
type TrafficMix = bench.Mix

// BenchmarkResult is a completed characterization: the curve family plus
// every raw measurement sample.
type BenchmarkResult = bench.Result

// Characterization service API. The service is the single path from a
// (platform, options) pair to its curve family: content-addressed cache
// keys, in-memory memoization with singleflight deduplication, optional
// on-disk persistence, and bounded parallel fan-out. See internal/charz.
type (
	// CharacterizationService caches and deduplicates characterizations.
	CharacterizationService = charz.Service
	// CharacterizationConfig parameterizes a service (workers, store,
	// runner override).
	CharacterizationConfig = charz.Config
	// CharacterizationRequest names one characterization: spec, options,
	// backend tag, and whether raw samples are required.
	CharacterizationRequest = charz.Request
	// Characterization is a completed request: key, family, optional raw
	// result, and where it came from.
	Characterization = charz.Artifact
	// CharacterizationStats are cumulative service counters.
	CharacterizationStats = charz.Stats
	// CharacterizationSource reports how a request was satisfied.
	CharacterizationSource = charz.Source
	// CharacterizationKey is the content-addressed identity of a request.
	CharacterizationKey = charz.Key
	// CurveStore persists curve families under a cache directory in the
	// release CSV format.
	CurveStore = charz.DiskStore
	// CurveStoreTier is the storage interface every curve tier implements
	// (disk, memory, tiered composition, remote client), so custom tiers
	// can back a CharacterizationConfig.Remote or a curve server.
	CurveStoreTier = curvestore.Store
	// MemoryCurveStore is a bounded in-memory LRU curve tier.
	MemoryCurveStore = curvestore.Memory
	// TieredCurveStore composes curve tiers in lookup order (canonically
	// memory → disk → remote) with fail-soft misses and write-back
	// promotion on hit.
	TieredCurveStore = curvestore.Tiered
	// RemoteCurveStore is the HTTP client tier for a messcurved curve
	// server: content-addressed GET/PUT with gzip bodies, ETag
	// revalidation, bounded retries and a fail-soft cooldown circuit.
	RemoteCurveStore = curvestore.Client
	// RemoteCurveStoreConfig parameterizes a RemoteCurveStore.
	RemoteCurveStoreConfig = curvestore.ClientConfig
)

// Characterization sources.
const (
	FromRun    = charz.SourceRun
	FromMemory = charz.SourceMemory
	FromDisk   = charz.SourceDisk
	FromRemote = charz.SourceRemote
)

// NewCharacterizationService builds a service.
func NewCharacterizationService(cfg CharacterizationConfig) *CharacterizationService {
	return charz.New(cfg)
}

// NewCurveStore opens (creating if needed) an on-disk curve cache.
func NewCurveStore(dir string) (*CurveStore, error) { return charz.NewDiskStore(dir) }

// NewMemoryCurveStore builds an in-memory curve tier holding at most
// maxEntries families (<= 0 means unbounded).
func NewMemoryCurveStore(maxEntries int) *MemoryCurveStore {
	return curvestore.NewMemory(maxEntries)
}

// NewTieredCurveStore composes curve tiers in lookup order; nil tiers are
// dropped.
func NewTieredCurveStore(tiers ...CurveStoreTier) *TieredCurveStore {
	return curvestore.NewTiered(tiers...)
}

// NewRemoteCurveStore builds the HTTP client tier for the curve server at
// baseURL (a cmd/messcurved instance), with default retry/cooldown
// behaviour. Use it as a CharacterizationConfig.Remote: the service then
// fetches families from — and uploads fresh runs to — the fleet-shared
// store, falling back to local tiers when the server is unreachable.
func NewRemoteCurveStore(baseURL string) (*RemoteCurveStore, error) {
	return curvestore.NewClient(baseURL, curvestore.ClientConfig{})
}

// FingerprintCharacterization computes a request's content-addressed key.
func FingerprintCharacterization(req CharacterizationRequest) CharacterizationKey {
	return charz.Fingerprint(req)
}

// defaultCharz backs the package-level Characterize and RunExperiment:
// one in-process cache shared by every caller that does not bring its own
// service. When MESS_CURVE_URL names a curve server, the default service
// joins the fleet-shared store exactly like the CLI tools do — fail-soft,
// so an unreachable (or misconfigured) server leaves the service purely
// in-memory rather than failing.
var defaultCharz = newDefaultCharz()

func newDefaultCharz() *charz.Service {
	cfg := charz.Config{}
	if u := os.Getenv(curvestore.EnvURL); u != "" {
		// A malformed URL is silently skipped here (package init cannot
		// error); the CLI tools, which own a flag, fail loudly instead.
		if client, err := curvestore.NewClient(u, curvestore.ClientConfig{}); err == nil {
			cfg.Remote = client
		}
	}
	return charz.New(cfg)
}

// DefaultCharacterizationService returns the process-wide service used by
// Characterize and RunExperiment. Long-lived processes characterizing
// many distinct configurations can bound its memory with Reset, which
// drops every cached entry.
func DefaultCharacterizationService() *CharacterizationService { return defaultCharz }

// CharzStats snapshots the default characterization service's cumulative
// counters: simulations actually run versus memory/disk/remote cache hits.
// It reads a consistent snapshot and is safe to poll from any goroutine;
// for a continuously exported view of the same numbers (Prometheus text
// or JSON), wire a telemetry registry through CharacterizationConfig
// instead of polling.
func CharzStats() CharacterizationStats { return defaultCharz.Stats() }

// Characterize runs the Mess benchmark on the platform's detailed memory
// model and returns the curve family with all samples. Results are served
// from the default characterization service: repeated calls with an
// identical (platform, options) pair simulate once, and concurrent calls
// for the same pair share a single run.
func Characterize(p Platform, opt BenchmarkOptions) (*BenchmarkResult, error) {
	return CharacterizeContext(context.Background(), p, opt)
}

// CharacterizeContext is Characterize under a caller-supplied context:
// cancellation stops the benchmark sweep at its next measurement-point
// boundary and propagates through every cache tier, returning ctx.Err().
// A characterization that completes before the cancellation is still
// persisted to the service's stores.
func CharacterizeContext(ctx context.Context, p Platform, opt BenchmarkOptions) (*BenchmarkResult, error) {
	art, err := defaultCharz.CharacterizeContext(ctx, charz.Request{Spec: p, Options: opt, NeedSamples: true})
	if err != nil {
		return nil, err
	}
	return art.Result, nil
}

// QuickBenchmarkOptions returns a reduced sweep (three mixes, coarse
// pacing) for fast exploration.
func QuickBenchmarkOptions() BenchmarkOptions { return bench.QuickOptions() }

// MeasureUnloadedLatency runs only the pointer chase and reports the
// platform's unloaded load-to-use latency in nanoseconds.
func MeasureUnloadedLatency(p Platform) (float64, error) {
	return bench.MeasureUnloaded(p, bench.QuickOptions())
}

// Memory-interface types, for embedding the Mess simulator (or any model)
// under a custom CPU model. Requests follow a pooled lifecycle: acquire
// from a MemRequestPool on hot paths (literal construction stays valid for
// cold ones), hand ownership to the backend via Access, and the backend
// completes exactly once — invoking Done(at, req) and returning the record
// to its pool. See the internal/mem package docs for the full ownership
// contract.
type (
	// MemRequest is one memory transaction; the backend completes it
	// exactly once, invoking Done.
	MemRequest = mem.Request
	// MemDoneFunc is the completion callback: per-request context rides
	// in the request instead of a captured closure.
	MemDoneFunc = mem.DoneFunc
	// MemRequestPool is a free-list request allocator; steady-state
	// issue/complete cycles allocate nothing.
	MemRequestPool = mem.RequestPool
	// MemRequestHandle is a generation-counted, stale-safe reference to a
	// pooled in-flight request.
	MemRequestHandle = mem.RequestHandle
	// MemOp distinguishes reads from writes at the controller boundary.
	MemOp = mem.Op
	// MemBackend services memory requests.
	MemBackend = mem.Backend
	// TrafficCounters mirror uncore bandwidth counters.
	TrafficCounters = mem.Counters
	// CountingBackend wraps a backend with traffic counters.
	CountingBackend = mem.CountingBackend
)

// Memory operations.
const (
	MemRead  = mem.Read
	MemWrite = mem.Write
)

// NewMemRequestPool returns an empty request pool. Pools, like engines,
// are single-goroutine: use one per simulation instance.
func NewMemRequestPool() *MemRequestPool { return mem.NewRequestPool() }

// NewCountingBackend wraps a backend with traffic counters.
func NewCountingBackend(inner MemBackend) *CountingBackend { return mem.NewCounting(inner) }

// SimulatorConfig configures the Mess analytical memory simulator.
type SimulatorConfig = messsim.Config

// Simulator is the Mess analytical memory simulator: a feedback controller
// over a curve family, usable as a memory backend.
type Simulator = messsim.Simulator

// Engine is the discrete-event kernel shared by all models: pooled events,
// a timer wheel in front of an overflow heap, and deterministic
// (deadline, schedule-order) execution. Engines are single-goroutine;
// Reset reuses one engine (pool and buckets kept warm) across runs.
type Engine = sim.Engine

// SimTime is a simulation timestamp in picoseconds.
type SimTime = sim.Time

// SimHandle identifies a scheduled event; Cancel is O(1) and safe after
// the event fired (a generation counter detects recycled records).
type SimHandle = sim.Handle

// SimTimer is a re-armable one-shot timer with a fixed callback — the
// allocation-free wake-up primitive for pacing loops.
type SimTimer = sim.Timer

// SimTicker fires a fixed callback every period, rescheduling in place.
type SimTicker = sim.Ticker

// Simulation time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
)

// NewEngine returns a fresh simulation engine.
func NewEngine() *Engine { return sim.New() }

// NewSimulator builds the Mess analytical simulator on the engine.
func NewSimulator(eng *Engine, cfg SimulatorConfig) *Simulator {
	return messsim.New(eng, cfg)
}

// Profiling API.
type (
	// Profile is an analyzed application profile.
	Profile = profile.Profile
	// ProfileSample is one analyzed window.
	ProfileSample = profile.Sample
	// PhaseSpan labels a timeline interval.
	PhaseSpan = profile.PhaseSpan
	// CounterWindow is a raw sampled traffic window.
	CounterWindow = profile.CounterWindow
)

// BuildProfile analyzes sampled counter windows against a curve family.
func BuildProfile(label string, fam *Family, windows []CounterWindow, phases []PhaseSpan, w StressWeights) *Profile {
	return profile.Build(label, fam, windows, phases, w)
}

// CXL device modelling (Sec. V-C).

// CXLFamily measures the bandwidth–latency curves of the modelled CXL
// memory expander (the manufacturer's-model stand-in).
func CXLFamily() *Family { return cxl.Family(cxl.SweepOptions{}) }

// RemoteSocketCXLFamily measures the curves of the remote-socket CXL
// emulation of Appendix B.
func RemoteSocketCXLFamily() *Family { return cxl.RemoteSocketFamily(cxl.SweepOptions{}) }

// OptaneFamily measures the curves of the modelled Intel Optane DC
// persistent-memory modules (App Direct mode), the other non-DDR
// technology the Mess simulator release supports.
func OptaneFamily() *Family { return cxl.OptaneFamily(cxl.SweepOptions{}) }

// CXL device models, directly instantiable as memory backends.
type (
	// CXLConfig parameterizes the CXL memory expander model.
	CXLConfig = cxl.Config
	// RemoteSocketCXLConfig parameterizes the remote-socket emulation.
	RemoteSocketCXLConfig = cxl.RemoteSocketConfig
	// OptaneConfig parameterizes the Optane module model.
	OptaneConfig = cxl.OptaneConfig
	// CXLExpander is the modelled CXL memory expander.
	CXLExpander = cxl.Expander
	// RemoteSocketCXL is the remote-socket CXL emulation.
	RemoteSocketCXL = cxl.RemoteSocket
	// OptaneModule is the modelled Optane DC module set.
	OptaneModule = cxl.Optane
)

// DefaultCXLConfig returns the released expander parameters.
func DefaultCXLConfig() CXLConfig { return cxl.Default() }

// DefaultRemoteSocketCXLConfig returns the released remote-socket
// parameters.
func DefaultRemoteSocketCXLConfig() RemoteSocketCXLConfig { return cxl.DefaultRemoteSocket() }

// DefaultOptaneConfig returns the released Optane parameters.
func DefaultOptaneConfig() OptaneConfig { return cxl.DefaultOptane() }

// Curve persistence.

// WriteCurvesCSV serializes a family in the release CSV format.
func WriteCurvesCSV(w io.Writer, f *Family) error { return f.WriteCSV(w) }

// ReadCurvesCSV parses a family from the release CSV format.
func ReadCurvesCSV(r io.Reader) (*Family, error) { return core.ReadCSV(r) }

// PlotCurves renders the family as an ASCII chart.
func PlotCurves(w io.Writer, f *Family, width, height int) error {
	return plot.CurveFamily(w, f, width, height)
}

// Experiment reproduction (every table and figure of the paper).

// Experiment is one registered reproduction target.
type Experiment = exp.Experiment

// ExperimentResult is a structured experiment outcome; Render writes it as
// text.
type ExperimentResult = exp.Result

// ExperimentScale selects Quick or Full fidelity.
type ExperimentScale = exp.Scale

// ExperimentEnv is the execution environment threaded through every
// experiment: the scale plus the characterization service the experiment
// draws curve families from.
type ExperimentEnv = exp.Env

// Experiment scales.
const (
	ScaleQuick = exp.Quick
	ScaleFull  = exp.Full
)

// Experiments lists every registered experiment.
func Experiments() []Experiment { return exp.All() }

// RunExperiment executes one experiment by id ("fig2" … "fig18", "table1",
// "tablespeed", "openpiton-bug") against the default characterization
// service, so experiments run back to back share reference curves.
func RunExperiment(id string, s ExperimentScale) (*ExperimentResult, error) {
	return RunExperimentWith(defaultCharz, id, s)
}

// RunExperimentContext is RunExperiment under a caller-supplied context:
// cancellation stops the experiment's reference characterizations at the
// next sweep-point boundary and surfaces as ctx.Err().
func RunExperimentContext(ctx context.Context, id string, s ExperimentScale) (*ExperimentResult, error) {
	return runExperiment(ctx, defaultCharz, id, s)
}

// RunExperimentWith executes one experiment against a caller-owned
// characterization service — e.g. one backed by an on-disk store so a
// registry sweep survives process restarts. A nil service gets a fresh
// in-memory one.
func RunExperimentWith(svc *CharacterizationService, id string, s ExperimentScale) (*ExperimentResult, error) {
	return runExperiment(context.Background(), svc, id, s)
}

func runExperiment(ctx context.Context, svc *CharacterizationService, id string, s ExperimentScale) (*ExperimentResult, error) {
	e, ok := exp.ByID(id)
	if !ok {
		return nil, &UnknownExperimentError{ID: id}
	}
	env := exp.NewEnv(s, svc)
	env.Ctx = ctx
	return e.Run(env)
}

// UnknownExperimentError reports a request for an unregistered experiment.
type UnknownExperimentError struct{ ID string }

func (e *UnknownExperimentError) Error() string {
	return "mess: unknown experiment " + e.ID
}
