package exp

import (
	"bytes"
	"encoding/json"
	"io"
	"sort"
	"strings"
	"testing"

	"github.com/mess-sim/mess/internal/charz"
	"github.com/mess-sim/mess/internal/platform"
	"github.com/mess-sim/mess/internal/telemetry"
)

// fig2QuickCSV runs the Quick fig2 experiment on a fresh (uncached,
// unshared) characterization service and renders every resulting family in
// the release CSV format.
func fig2QuickCSV(t *testing.T) []byte {
	t.Helper()
	env := NewEnv(Quick, charz.New(charz.Config{}))
	e, ok := ByID("fig2")
	if !ok {
		t.Fatal("fig2 not registered")
	}
	res, err := e.Run(env)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, fam := range res.Families {
		if err := fam.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestFig2ReleaseCSVDeterminism is the bit-exactness gate of the DRAM
// scheduler: the Quick fig2 sweep must produce byte-identical release CSVs
// across runs, with decide-event fusion disabled and with completion
// batching disabled. This is the contract manual diffing enforced during
// the PR-2/PR-3 refactors, promoted to a test so `go test ./...` catches
// any scheduler change that perturbs the curves — and any fusion or
// batching bug, since both are legal exactly because they cannot change
// results.
func TestFig2ReleaseCSVDeterminism(t *testing.T) {
	first := fig2QuickCSV(t)
	if len(first) == 0 {
		t.Fatal("fig2 produced no CSV output")
	}
	second := fig2QuickCSV(t)
	if !bytes.Equal(first, second) {
		t.Fatalf("fig2 release CSVs differ between identical runs:\nrun1:\n%s\nrun2:\n%s", first, second)
	}

	// The same characterization with each inline shortcut disabled: with
	// NoFusion the scheduler takes only scheduled decide events, never the
	// inline loop; with NoCompBatch every completion fires as its own
	// scheduled event. Both must land on the same curves byte for byte.
	base := referenceCSV(t, nil, nil)
	legs := []struct {
		name  string
		tweak func(*platform.Spec)
	}{
		{"NoFusion", func(spec *platform.Spec) { spec.DRAM.NoFusion = true }},
		{"NoCompBatch", func(spec *platform.Spec) { spec.DRAM.NoCompBatch = true }},
	}
	for _, leg := range legs {
		if got := referenceCSV(t, nil, leg.tweak); !bytes.Equal(base, got) {
			t.Errorf("%s changed the curves:\nbase:\n%s\n%s:\n%s", leg.name, base, leg.name, got)
		}
	}
}

// referenceCSV characterizes the Quick-scaled Skylake reference on a fresh
// service with the given environment/spec tweaks and returns the CSV bytes.
func referenceCSV(t *testing.T, tweakEnv func(*Env), tweakSpec func(*platform.Spec)) []byte {
	t.Helper()
	spec := scaleSpec(platform.Skylake(), Quick)
	if tweakSpec != nil {
		tweakSpec(&spec)
	}
	env := NewEnv(Quick, charz.New(charz.Config{}))
	if tweakEnv != nil {
		tweakEnv(env)
	}
	fam, err := env.reference(spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fam.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// telemetryCSVAndSpans characterizes the Quick-scaled Skylake reference
// with telemetry fully enabled — registry, tracer and a verbose logger —
// and returns the release CSV plus the sorted names of every complete
// span the run recorded.
func telemetryCSVAndSpans(t *testing.T) ([]byte, []string, *telemetry.Set) {
	t.Helper()
	set := &telemetry.Set{
		Metrics: telemetry.NewRegistry(),
		Tracer:  telemetry.NewTracer(),
		Log:     telemetry.NewLogger(telemetry.LogConfig{Verbose: true, Output: io.Discard}),
	}
	csv := referenceCSV(t, func(env *Env) {
		env.Charz = charz.New(charz.Config{Telemetry: set})
	}, nil)
	var buf bytes.Buffer
	if err := set.Tracer.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	var names []string
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			names = append(names, e.Name)
		}
	}
	sort.Strings(names)
	return csv, names, set
}

// countSpans tallies the sorted span names by prefix.
func countSpans(names []string, prefix string) int {
	n := 0
	for _, name := range names {
		if strings.HasPrefix(name, prefix) {
			n++
		}
	}
	return n
}

// TestTelemetryEnabledDeterminism is the observability contract of the
// telemetry layer: with metrics, tracing and verbose logging all enabled,
// the release CSVs must stay byte-identical to the uninstrumented run, the
// recorded span structure must be deterministic across runs, and the
// taxonomy's core span families (charz fill, bench point) must actually
// be present.
func TestTelemetryEnabledDeterminism(t *testing.T) {
	base := referenceCSV(t, nil, nil)

	csv1, spans1, set := telemetryCSVAndSpans(t)
	if !bytes.Equal(base, csv1) {
		t.Errorf("telemetry-enabled release CSV differs from the uninstrumented run:\nbase:\n%s\ninstrumented:\n%s", base, csv1)
	}
	if got := countSpans(spans1, "characterize "); got == 0 {
		t.Error("no charz fill span recorded")
	}
	if got := countSpans(spans1, "point "); got == 0 {
		t.Error("no bench sweep-point spans recorded")
	}
	snap := set.Metrics.Snapshot()
	if snap[`mess_bench_points_total`] == 0 {
		t.Error("mess_bench_points_total stayed 0 on an instrumented sweep")
	}
	if snap[`mess_charz_requests_total{source="run"}`] == 0 {
		t.Error("charz run counter stayed 0 on an instrumented characterization")
	}

	_, spans2, _ := telemetryCSVAndSpans(t)
	if len(spans1) != len(spans2) || func() bool {
		for i := range spans1 {
			if spans1[i] != spans2[i] {
				return true
			}
		}
		return false
	}() {
		t.Errorf("span structure differs between identical runs:\nrun1: %v\nrun2: %v", spans1, spans2)
	}
}
