// Command sentinel-train runs one model under one tensor-management policy
// on a simulated heterogeneous-memory machine and reports step time,
// throughput, and migration statistics.
//
// Usage:
//
//	sentinel-train -model resnet32 -batch 128 -policy sentinel -fastpct 20
//	sentinel-train -model bert-large -batch 16 -platform gpu -policy capuchin
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"sentinel/internal/chaos"
	"sentinel/internal/exec"
	"sentinel/internal/experiment"
	"sentinel/internal/graph"
	"sentinel/internal/model"
	"sentinel/internal/policyset"
	"sentinel/internal/simtime"
	"sentinel/internal/tracecli"
)

func main() {
	var (
		modelName = flag.String("model", "resnet32", "model name (see -list)")
		specPath  = flag.String("spec", "", "path to a JSON workload spec (overrides -model/-batch)")
		batch     = flag.Int("batch", 128, "batch size")
		policy    = flag.String("policy", "sentinel", "policy name (see -list)")
		platform  = flag.String("platform", "optane", "machine preset: "+strings.Join(experiment.Platforms(), ", "))
		fastPct   = flag.Float64("fastpct", 20, "fast memory size as % of model peak memory (0 = platform default)")
		steps     = flag.Int("steps", 5, "training steps to simulate")
		list      = flag.Bool("list", false, "list models and policies, then exit")
		online    = flag.Bool("online", false, "adaptive controller: re-profile and replan when the plan diverges")
	)
	tf := tracecli.Register()
	cf := chaos.RegisterFlags()
	flag.Parse()
	if err := cf.Validate(); err != nil {
		fatal(err)
	}

	if *list {
		fmt.Println("models:  ", model.Names())
		fmt.Println("policies:", policyset.Names())
		return
	}

	var g *graph.Graph
	var err error
	if *specPath != "" {
		f, ferr := os.Open(*specPath)
		if ferr != nil {
			fatal(ferr)
		}
		g, err = model.LoadSpec(f)
		f.Close()
		if err == nil {
			*modelName = g.Model
			*batch = g.Batch
		}
	} else {
		g, err = model.Build(*modelName, *batch)
	}
	if err != nil {
		fatal(err)
	}
	spec, err := experiment.Platform(*platform)
	if err != nil {
		fatal(err)
	}
	peak := g.PeakMemory()
	if *fastPct > 0 {
		spec = spec.WithFastSize(int64(*fastPct / 100 * float64(peak)))
	}

	var opts []exec.Option
	if tf.Enabled() {
		opts = append(opts, exec.WithTrace(tf.Bus(), ""))
	}
	if cf.Enabled() {
		opts = append(opts, exec.WithChaos(chaos.New(*cf)))
	}
	if *online {
		opts = append(opts, exec.WithOnline(exec.DefaultOnline()))
	}
	run, err := policyset.Run(g, spec, *policy, *steps, opts...)
	if err != nil {
		fatal(err)
	}
	if err := tf.Write(); err != nil {
		fatal(err)
	}

	fmt.Printf("model %s  batch %d  policy %s  platform %s\n", *modelName, *batch, *policy, spec.Name)
	fmt.Printf("peak memory %s, short-lived peak %s, fast memory %s (%.0f%% of peak)\n",
		simtime.Bytes(peak), simtime.Bytes(g.PeakShortLived()),
		simtime.Bytes(spec.Fast.Size), 100*float64(spec.Fast.Size)/float64(peak))
	for _, st := range run.Steps {
		fmt.Printf("  %s\n", st)
	}
	if cf.Enabled() {
		var retries, degraded int64
		for _, st := range run.Steps {
			retries += st.MigrateRetries
			degraded += st.Degraded
		}
		diverged := ""
		if run.Diverged {
			diverged = "  plan diverged -> demand-only"
		}
		fmt.Printf("chaos: %v  migrate-retries %d  degraded %d%s\n",
			cf, retries, degraded, diverged)
	}
	if *online {
		fmt.Printf("online: %v  replans %d  recovered steps %d\n",
			exec.DefaultOnline(), run.Replans, run.RecoveredSteps)
	}
	for _, l := range run.ControllerLog {
		fmt.Printf("  controller %s\n", l)
	}
	fmt.Printf("steady step %v  throughput %.1f samples/s\n",
		run.SteadyStepTime(), run.Throughput())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sentinel-train:", err)
	os.Exit(1)
}
