// Command messexp reproduces the paper's tables and figures. Each
// experiment renders a structured report: tables, ASCII curve figures and
// reproduction notes.
//
// All experiments in one invocation share a single characterization
// service, so `-run all` performs each unique characterization exactly
// once; with -cache-dir the curves additionally persist across
// invocations, and with -cache-url (or $MESS_CURVE_URL) they are shared
// with the whole fleet through a cmd/messcurved curve server.
//
// Usage:
//
//	messexp -list
//	messexp -run fig2
//	messexp -run all -scale full -outdir results/ [-cache-dir ~/.cache/mess]
//	messexp -run all -cache-url http://curves.internal:9400
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/mess-sim/mess"
	"github.com/mess-sim/mess/internal/cli"
	"github.com/mess-sim/mess/internal/telemetry"
)

func main() {
	var (
		run      = flag.String("run", "", "experiment id (fig2 … fig18, table1, tablespeed, openpiton-bug) or \"all\"")
		scale    = flag.String("scale", "quick", "quick (scaled platforms, coarse sweeps) or full (paper configurations)")
		outdir   = flag.String("outdir", "", "also write each report to <outdir>/<id>.txt")
		list     = flag.Bool("list", false, "list experiments and exit")
		cacheDir = flag.String("cache-dir", "", "persist curve families under this directory")
		cacheMax = flag.Int("cache-max-mb", 0, "bound the curve cache size in MiB (0 = unbounded); LRU eviction")
		cacheURL = flag.String("cache-url", "", cli.CurveURLUsage)
		timeout  = flag.Duration("timeout", 0, cli.TimeoutUsage)
	)
	tel := cli.TelemetryFlags().WithTrace()
	flag.Parse()

	if *list || *run == "" {
		fmt.Println("experiments:")
		for _, e := range mess.Experiments() {
			fmt.Printf("  %-14s %-10s %s\n", e.ID, e.Paper, e.Title)
		}
		if *run == "" && !*list {
			fmt.Println("\nuse -run <id> or -run all")
		}
		return
	}

	s := cli.MustScale(*scale)

	ids := []string{*run}
	if *run == "all" {
		ids = ids[:0]
		for _, e := range mess.Experiments() {
			ids = append(ids, e.ID)
		}
	}

	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			cli.Fatal(err)
		}
	}

	ctx, stop := cli.Context(*timeout)
	defer stop()
	svc := cli.Service(*cacheDir, *cacheMax, *cacheURL, tel.Set())
	env := &mess.ExperimentEnv{Scale: s, Charz: svc, Ctx: ctx}
	// Progress and failure reporting go through the structured logger: each
	// slog record is written with a single atomic Write, so interleaved
	// output from concurrent characterizations never shears a line — and
	// -log-json makes the run machine-parseable for CI.
	log := tel.Set().Logger()
	track := tel.Set().Trace().NewTrack("messexp", "experiments")
	failed := 0
	for _, id := range ids {
		if ctx.Err() != nil {
			// Cancelled (SIGINT or -timeout): stop cleanly instead of
			// burning through — and failing — every remaining experiment.
			log.Error("run cancelled", "cause", ctx.Err())
			failed++
			break
		}
		start := time.Now()
		log.Info("experiment starting", "experiment", id, "scale", s.String())
		sp := tel.Set().Trace().Begin(track, "experiment "+id)
		res, err := runExperiment(env, id)
		if err != nil {
			sp.End(telemetry.String("outcome", "error"))
			log.Error("experiment failed", "experiment", id, "err", err,
				"duration", time.Since(start).Round(time.Millisecond).String())
			failed++
			continue
		}
		sp.End(telemetry.String("outcome", "ok"))
		fmt.Printf("\n")
		if err := res.Render(os.Stdout); err != nil {
			cli.Fatal(err)
		}
		log.Info("experiment done", "experiment", id, "scale", s.String(),
			"duration", time.Since(start).Round(time.Millisecond).String())

		if *outdir != "" {
			path := filepath.Join(*outdir, id+".txt")
			f, err := os.Create(path)
			if err != nil {
				cli.Fatal(err)
			}
			if err := res.Render(f); err != nil {
				f.Close()
				cli.Fatal(err)
			}
			f.Close()
		}
	}
	cli.PrintStats(svc)
	if err := tel.WriteTrace(); err != nil {
		cli.Fatal(err)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// runExperiment runs the experiment named id in the invocation's shared
// environment.
func runExperiment(env *mess.ExperimentEnv, id string) (*mess.ExperimentResult, error) {
	for _, e := range mess.Experiments() {
		if e.ID == id {
			return e.Run(env)
		}
	}
	return nil, &mess.UnknownExperimentError{ID: id}
}
