// Command pacerbench regenerates the PACER paper's evaluation (Section 5):
// every table and figure, on the simulator substrate.
//
// Usage:
//
//	pacerbench [-experiment all|table1|table2|table3|fig3|fig4|fig5|fig6|fig7|fig8|fig9|fig10|ablation|ingest]
//	           [-bench eclipse|hsqldb|xalan|pseudojbb] [-scale 0.2] [-seed 0]
//
// The ingest experiment is different in kind: it load-tests the production
// ingest tier (internal/ingest): thousands of simulated reporters with
// fault injection and a graceful mid-run collector restart, asserting
// bounded state memory, zero triage loss, and the delta-push size win.
// Wall-clock comparisons of the concurrent front-end are the root
// package's benchmarks: go test -bench FrontendParallel -cpu 1,2,4,8.
//
// -scale multiplies the paper's trial counts (1.0 reproduces the full
// protocol: 50 fully sampled trials per benchmark, up to 500 trials per
// sampling rate, and so on; the default 0.2 finishes in a few minutes).
// It must be positive.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"pacer/internal/harness"
	"pacer/internal/ingest/loadtest"
	"pacer/internal/workload"
)

// experiments lists the -experiment names, "all" first.
var experiments = []string{"all", "table1", "table2", "table3",
	"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
	"ablation", "ingest"}

func main() {
	experiment := flag.String("experiment", "all",
		"experiment to run: "+strings.Join(experiments, ", "))
	benchName := flag.String("bench", "", "restrict to one benchmark (eclipse, hsqldb, xalan, pseudojbb)")
	scale := flag.Float64("scale", 0.2, "trial-count scale factor (1.0 = the paper's protocol)")
	seed := flag.Int64("seed", 0, "base seed for all trials")
	flag.Parse()

	if !(*scale > 0) {
		fmt.Fprintf(os.Stderr, "pacerbench: -scale must be positive, got %v\n", *scale)
		os.Exit(2)
	}
	opts := harness.Options{Scale: *scale, SeedBase: *seed}
	if *benchName != "" {
		b := workload.ByName(*benchName)
		if b == nil {
			fmt.Fprintf(os.Stderr, "pacerbench: unknown benchmark %q\n", *benchName)
			os.Exit(2)
		}
		opts.Benches = []*workload.Spec{b}
	}

	want := func(name string) bool { return *experiment == "all" || *experiment == name }
	ran := 0
	start := time.Now()

	section := func(name string, run func() error) {
		if !want(name) {
			return
		}
		ran++
		t0 := time.Now()
		if err := run(); err != nil {
			fmt.Fprintf(os.Stderr, "pacerbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s took %v]\n\n", name, time.Since(t0).Round(time.Millisecond))
	}

	section("table1", func() error {
		r, err := harness.Table1(opts)
		if err != nil {
			return err
		}
		r.Render(os.Stdout)
		return nil
	})
	section("table2", func() error {
		r, err := harness.Table2(opts)
		if err != nil {
			return err
		}
		r.Render(os.Stdout)
		return nil
	})
	if want("fig3") || want("fig4") || want("fig5") {
		ran++
		t0 := time.Now()
		r, err := harness.Accuracy(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pacerbench: accuracy: %v\n", err)
			os.Exit(1)
		}
		if want("fig3") {
			r.RenderFig3(os.Stdout)
			fmt.Println()
			r.Chart(os.Stdout, false)
			fmt.Println()
		}
		if want("fig4") {
			r.RenderFig4(os.Stdout)
			fmt.Println()
			r.Chart(os.Stdout, true)
			fmt.Println()
		}
		if want("fig5") {
			r.RenderFig5(os.Stdout)
			fmt.Println()
		}
		fmt.Printf("[accuracy (fig3-5) took %v]\n\n", time.Since(t0).Round(time.Millisecond))
	}
	section("fig6", func() error {
		b := workload.Eclipse()
		if len(opts.Benches) == 1 {
			b = opts.Benches[0]
		}
		r, err := harness.Fig6(b, opts)
		if err != nil {
			return err
		}
		r.Render(os.Stdout)
		return nil
	})
	section("fig7", func() error {
		r, err := harness.Fig7(opts)
		if err != nil {
			return err
		}
		r.Render(os.Stdout)
		fmt.Println()
		r.Chart(os.Stdout)
		return nil
	})
	section("fig8", func() error {
		r, err := harness.Scaling(opts, harness.Fig8Rates, 8)
		if err != nil {
			return err
		}
		r.Render(os.Stdout)
		fmt.Println()
		r.Chart(os.Stdout)
		return nil
	})
	section("fig9", func() error {
		r, err := harness.Scaling(opts, harness.Fig9Rates, 9)
		if err != nil {
			return err
		}
		r.Render(os.Stdout)
		return nil
	})
	section("fig10", func() error {
		b := workload.Eclipse()
		if len(opts.Benches) == 1 {
			b = opts.Benches[0]
		}
		r, err := harness.Fig10(b, opts)
		if err != nil {
			return err
		}
		r.Render(os.Stdout)
		fmt.Println()
		r.Chart(os.Stdout)
		return nil
	})
	section("ablation", func() error {
		r, err := harness.Ablations(opts)
		if err != nil {
			return err
		}
		r.Render(os.Stdout)
		return nil
	})
	section("table3", func() error {
		r, err := harness.Table3(opts)
		if err != nil {
			return err
		}
		r.Render(os.Stdout)
		return nil
	})
	section("ingest", func() error {
		reporters := int(5000 * *scale)
		if reporters < 100 {
			reporters = 100
		}
		dir, err := os.MkdirTemp("", "pacerd-ingest-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		res, err := loadtest.Run(loadtest.Config{
			Reporters: reporters,
			Restart:   true,
			StateDir:  dir,
			Seed:      *seed,
		})
		if err != nil {
			return err
		}
		res.Render(os.Stdout)
		return loadtest.Check(res)
	})

	if ran == 0 {
		fmt.Fprintf(os.Stderr, "pacerbench: unknown experiment %q (try: %s)\n",
			*experiment, strings.Join(experiments, ", "))
		os.Exit(2)
	}
	fmt.Printf("pacerbench: done in %v (scale %.2f)\n", time.Since(start).Round(time.Millisecond), *scale)
}
