// Command rfpsim simulates one workload on one core configuration and
// prints the full statistics block — the single-run research tool behind
// the experiment harness.
//
// Usage:
//
//	rfpsim -workload spec06_mcf [-rfp [-pat] [-context] [-confbits B] [-ptentries N]]
//	       [-clp] [-vp eves|dlvp|composite|epp] [-oracle l1|l2|llc|mem]
//	       [-prefetcher stream|spp|sisb|managed] [-latealloc] [-2x]
//	       [-warmup N] [-measure N] [-coldcaches]
//	       [-sample] [-sample-interval N] [-sample-maxk K] [-sample-warmup N]
//	       [-checks] [-v] [-cpuprofile out.pprof]
//	rfpsim -workload all -diff norfp [-measure N] [-diff-interval N]
//	rfpsim -listworkloads
//
// The configuration flags are the rfpsimd "config" knobs under CLI
// spellings: they fill a service.ConfigSpec and resolve through its
// Build, so the CLI names, defaults and validates a configuration exactly
// as the daemon does (docs/service.md). -clp implies -rfp; -pat,
// -context, -confbits and -ptentries without -rfp are rejected, and
// -confbits/-ptentries of 0 keep the paper's defaults. Any invalid
// configuration exits 2.
//
// -prefetcher enables an L1 hardware cache prefetcher from the zoo
// (docs/prefetchers.md): "stream" (sequential), "spp" (signature-path),
// "sisb" (temporal) or "managed" (adaptive selection among the three).
//
// -diff runs the differential correctness harness (docs/checking.md):
// the flag-built configuration is paired against a derived baseline
// (norfp, novp, nolatealloc, nopf, noclp, baseline, or full for
// sampled-vs-full) and the committed architectural traces are compared;
// any divergence is localized to its first divergent interval and uop
// and exits non-zero. -checks enables the runtime invariant layer on a
// normal run.
//
// -v turns on debug logging and prints a per-stage wall-time breakdown
// (fast-forward / warmup / measure / aggregate, plus profile under
// -sample) to stderr after the run; -cpuprofile captures a pprof CPU
// profile of the simulation. See docs/observability.md.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"rfpsim/internal/check"
	"rfpsim/internal/config"
	"rfpsim/internal/core"
	"rfpsim/internal/isa"
	"rfpsim/internal/obs"
	"rfpsim/internal/runner"
	"rfpsim/internal/sample"
	"rfpsim/internal/service"
	"rfpsim/internal/stats"
	"rfpsim/internal/trace"
	"rfpsim/internal/tracefile"
)

func main() {
	var (
		workload  = flag.String("workload", "spec06_mcf", "workload name from the Table 3 suite")
		traceFile = flag.String("trace", "", "run from a binary trace file instead of a synthetic workload")
		listWk    = flag.Bool("listworkloads", false, "list the 65-workload suite and exit")
		useRFP    = flag.Bool("rfp", false, "enable Register File Prefetching")
		usePAT    = flag.Bool("pat", false, "use the Page Address Table PT encoding")
		useCtx    = flag.Bool("context", false, "add the path-based context prefetcher")
		useCLP    = flag.Bool("clp", false, "cache-level-predicted RFP arming schedule (implies -rfp; docs/predictors.md)")
		vpMode    = flag.String("vp", "", "value prediction: eves, dlvp, composite or epp")
		oracle    = flag.String("oracle", "", "oracle prefetch study: l1, l2, llc or mem")
		upscaled  = flag.Bool("2x", false, "use the futuristic Baseline-2x core")
		warmup    = flag.Uint64("warmup", 30000, "warmup uops (cache/predictor training)")
		measure   = flag.Uint64("measure", 60000, "measured uops")
		noWarmC   = flag.Bool("coldcaches", false, "skip footprint-based cache warming")
		confBits  = flag.Int("confbits", 0, "RFP confidence counter width (1-4; 0 = paper default)")
		ptEntries = flag.Int("ptentries", 0, "RFP Prefetch Table entries (0 = paper default)")
		pipeTrace = flag.Uint64("pipetrace", 0, "stream N cycles of pipeline events to stderr (after warmup)")
		profile   = flag.Bool("profile", false, "print per-PC load profile (top 15) after the run")

		lateAlloc = flag.Bool("latealloc", false, "late register allocation (§3.3 pipeline variation)")
		pfName    = flag.String("prefetcher", "", "L1 hardware prefetcher: stream, spp, sisb or managed (docs/prefetchers.md)")
		doChecks  = flag.Bool("checks", false, "enable the runtime invariant layer (docs/checking.md)")
		diffMode  = flag.String("diff", "", "differential harness: norfp, novp, nolatealloc, nopf, noclp, baseline or full")
		diffIntvl = flag.Uint64("diff-interval", 0, "divergence-localization interval in uops (0 = default 1000)")

		doSample  = flag.Bool("sample", false, "SimPoint-style sampled simulation (see docs/sampling.md)")
		sInterval = flag.Uint64("sample-interval", 0, "sampling interval length in uops (0 = default 2000)")
		sMaxK     = flag.Int("sample-maxk", 0, "max representative intervals (0 = default 5)")
		sWarmup   = flag.Uint64("sample-warmup", 0, "per-representative cycle warmup uops (0 = one interval)")

		verbose    = flag.Bool("v", false, "debug logging plus a per-stage wall-time breakdown on stderr")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the simulation to this file")
	)
	flag.Parse()
	if *verbose {
		slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelDebug})))
	}

	if *listWk {
		for _, c := range trace.Categories() {
			for _, s := range trace.ByCategory(c) {
				fmt.Println(s)
			}
		}
		return
	}

	// The daemon's ConfigSpec is the one knob path (see the package doc).
	cfg, err := service.ConfigSpec{
		Upscaled:       *upscaled,
		RFP:            *useRFP || *useCLP,
		PAT:            *usePAT,
		Context:        *useCtx,
		CLP:            *useCLP,
		ConfidenceBits: *confBits,
		PTEntries:      *ptEntries,
		VP:             *vpMode,
		Oracle:         *oracle,
		LateRegAlloc:   *lateAlloc,
		Prefetcher:     *pfName,
		Checks:         *doChecks,
	}.Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// Ctrl-C / SIGTERM cancels the in-flight simulation promptly instead
	// of leaving it to run to completion.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *diffMode != "" {
		var sp *runner.Sampling
		if *doSample {
			sp = &runner.Sampling{IntervalUops: *sInterval, MaxK: *sMaxK, WarmupUops: *sWarmup}
		}
		code := runDiff(ctx, cfg, *diffMode, *workload, *traceFile, *measure, *diffIntvl, sp)
		stop()
		os.Exit(code)
	}

	job := runner.Job{
		Config:      cfg,
		WarmupUops:  *warmup,
		MeasureUops: *measure,
		Seeds:       1,
		ColdCaches:  *noWarmC,
	}
	if *doSample {
		job.Sampling = &runner.Sampling{
			IntervalUops: *sInterval,
			MaxK:         *sMaxK,
			WarmupUops:   *sWarmup,
		}
	}
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		r, err := tracefile.NewReader(f, *traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		job.Gen = r
		job.Spec = trace.Spec{Name: *traceFile, Category: "trace-file"}
	} else {
		spec, ok := trace.ByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q (use -listworkloads)\n", *workload)
			os.Exit(2)
		}
		job.Spec = spec
	}

	// The observer hook fires between warmup and the measured run, which
	// is where pipeline tracing and profiling attach.
	var observed *core.Core
	job.AfterWarmup = func(c *core.Core) {
		observed = c
		if *pipeTrace > 0 {
			c.AttachPipeTrace(os.Stderr, c.Cycle(), c.Cycle()+*pipeTrace)
		}
		if *profile {
			c.EnableProfile()
		}
	}

	var tim *obs.Timings
	if *verbose {
		ctx, tim = obs.WithTimings(ctx)
	}
	run := func() (sample.Result, error) { return sample.RunResult(ctx, job) }
	var res sample.Result
	var runErr error
	if *cpuProfile != "" {
		_, runErr = obs.CaptureCPUProfile(*cpuProfile, func() error {
			var e error
			res, e = run()
			return e
		})
	} else {
		res, runErr = run()
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "run failed: %v\n", runErr)
		os.Exit(1)
	}
	if tim != nil {
		fmt.Fprintf(os.Stderr, "stage timings: %s\n", tim.Pretty())
	}
	if res.Plan != nil {
		fmt.Print(res.Plan)
		fmt.Println()
	}
	printStats(cfg.Name, job.Spec, res.Stats)
	if *profile {
		fmt.Println("\nper-PC load profile (top 15):")
		fmt.Println(observed.Profile())
	}
}

// runDiff executes the differential harness (docs/checking.md) for one
// workload, a trace file, or — with -workload all — the whole catalog,
// and returns the process exit code: 0 when every pairing commits an
// identical architectural trace with zero invariant violations, 1 on
// any divergence or violation, 2 on usage errors.
func runDiff(ctx context.Context, variant config.Core, mode, workload, traceFile string, measure, interval uint64, sampling *runner.Sampling) int {
	base, sampledVsFull, err := check.BaseFor(mode, variant)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	d := check.Differential{
		Base: base, Variant: variant,
		Uops: measure, IntervalUops: interval,
	}
	switch {
	case sampledVsFull:
		sp := runner.Sampling{}
		if sampling != nil {
			sp = *sampling
		}
		d.VariantSampling = &sp
	case sampling != nil:
		fmt.Fprintln(os.Stderr, "-sample only pairs with -diff full (the sampled-vs-full comparison)")
		return 2
	}

	var specs []trace.Spec
	switch {
	case traceFile != "":
		// Both sides (and any retry) need a fresh generator over the
		// identical stream, so the file is read once and re-decoded per
		// side.
		data, err := os.ReadFile(traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if _, err := tracefile.NewReader(bytes.NewReader(data), traceFile); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		d.NewGen = func() isa.Generator {
			r, err := tracefile.NewReader(bytes.NewReader(data), traceFile)
			if err != nil { // validated above; cannot recur
				panic(err)
			}
			return r
		}
		specs = []trace.Spec{{Name: traceFile, Category: "trace-file"}}
	case workload == "all":
		specs = trace.Catalog()
	default:
		spec, ok := trace.ByName(workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q (use -listworkloads)\n", workload)
			return 2
		}
		specs = []trace.Spec{spec}
	}

	exit := 0
	for _, spec := range specs {
		d.Spec = spec
		res, err := d.Run(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "diff failed: %v\n", err)
			return 1
		}
		fmt.Println(res)
		if res.Diverged || res.BaseViolations != 0 || res.VariantViolations != 0 {
			exit = 1
		}
	}
	return exit
}

func printStats(cfgName string, spec trace.Spec, st *stats.Sim) {
	fmt.Printf("workload   %s\nconfig     %s\n", spec, cfgName)
	fmt.Printf("cycles     %d\nuops       %d\nIPC        %.3f\n", st.Cycles, st.Instructions, st.IPC())
	fmt.Printf("loads      %d (forwarded %d)\nstores     %d\nbranches   %d (mispredicted %d)\n",
		st.Loads, st.StoreForwarded, st.Stores, st.Branches, st.BranchMispredicts)
	fmt.Print("load hits  ")
	for l := 0; l < stats.NumLevels; l++ {
		fmt.Printf("%s %s  ", stats.LevelName(l), stats.Pct(st.LoadLevelFrac(l)))
	}
	fmt.Println()
	fmt.Printf("speculation  replays %d, hit-miss mispredicts %d, ordering violations %d, DTLB misses %d\n",
		st.Replays, st.HitMissMispredicts, st.MemOrderViolations, st.DTLBMisses)
	if st.RFP.Injected > 0 {
		fmt.Printf("RFP        injected %s, executed %s, useful %s (coverage), wrong %s, fully hidden %s\n",
			stats.Pct(st.RFPInjectedFrac()), stats.Pct(st.RFPExecutedFrac()),
			stats.Pct(st.RFPCoverage()), stats.Pct(st.RFPWrongFrac()),
			stats.Pct(float64(st.RFP.FullyHidden)/float64(st.Loads)))
	}
	if st.L1PF.Issued > 0 {
		fmt.Printf("L1PF       issued %d, useful %d (coverage %s, accuracy %s), late %d, unused %d, dropped %d\n",
			st.L1PF.Issued, st.L1PF.Useful, stats.Pct(st.L1PFCoverage()),
			stats.Pct(st.L1PFAccuracy()), st.L1PF.Late, st.L1PF.Unused, st.L1PF.Dropped)
		if st.L1PF.ManagerEpochs > 0 {
			fmt.Printf("L1PF mgr   epochs %d, switches %d, throttled %d\n",
				st.L1PF.ManagerEpochs, st.L1PF.ManagerSwitches, st.L1PF.ManagerThrottledEpochs)
		}
	}
	if st.CLP.PredictedTotal() > 0 {
		fmt.Printf("CLP        predicted %s of loads (accuracy %s), per level ",
			stats.Pct(st.CLPCoverage()), stats.Pct(st.CLPAccuracy()))
		for l := 0; l < stats.NumLevels; l++ {
			if st.CLP.Predicted[l] > 0 {
				fmt.Printf("%s %s  ", stats.LevelName(l), stats.Pct(st.CLPLevelAccuracy(l)))
			}
		}
		fmt.Println()
		fmt.Printf("CLP sched  skipped-dram %d, early-armed %d, crit-gated %d\n",
			st.CLP.SkippedDRAM, st.CLP.EarlyArmed, st.CLP.CritGated)
	}
	if st.VP.Predicted > 0 {
		fmt.Printf("VP         predicted %s of loads, mispredicted %d (flushes %d)\n",
			stats.Pct(st.VPCoverage()), st.VP.Mispredicted, st.VPFlushes)
	}
	if st.Checks.Total() > 0 {
		fmt.Printf("CHECKS     %d invariant violations:", st.Checks.Total())
		st.Checks.Each(func(name string, count uint64) {
			if count > 0 {
				fmt.Printf(" %s=%d", name, count)
			}
		})
		fmt.Println()
	}
}
