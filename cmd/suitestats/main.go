// Command suitestats prints one diagnostic line per workload of the
// 65-entry suite — IPC, hit-level distribution and (with -rfp) the RFP
// funnel — sorted by the chosen column. It is the calibration tool used to
// keep the synthetic suite aligned with the paper's population-level facts
// (≈93% L1 hits, ≈43% RFP coverage, FSPEC insensitivity).
//
// A workload whose pipeline wedges (a model bug) no longer aborts the
// whole sweep: its error is recorded, the surviving rows still print, and
// the command exits non-zero at the end.
//
// Usage:
//
//	suitestats [-rfp] [-sort ipc|l1|coverage|gain] [-warmup N] [-measure N]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"

	"rfpsim/internal/config"
	"rfpsim/internal/runner"
	"rfpsim/internal/stats"
	"rfpsim/internal/trace"
)

type row struct {
	spec trace.Spec
	base *stats.Sim
	rfp  *stats.Sim
	err  error
}

func main() {
	var (
		withRFP = flag.Bool("rfp", false, "also run with RFP and report coverage/gain")
		sortBy  = flag.String("sort", "l1", "sort column: ipc, l1, coverage or gain")
		warmup  = flag.Uint64("warmup", 20000, "warmup uops")
		measure = flag.Uint64("measure", 40000, "measured uops")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	specs := trace.Catalog()
	rows := make([]row, len(specs))
	runner.Each(len(specs), runtime.NumCPU(), func(i int) {
		// Errors (a wedged pipeline, cancellation) are recorded in the
		// row instead of exiting: killing the process from a worker
		// goroutine would discard every in-flight sibling's work.
		r := row{spec: specs[i]}
		r.base, r.err = run(ctx, config.Baseline(), specs[i], *warmup, *measure)
		if r.err == nil && *withRFP {
			r.rfp, r.err = run(ctx, config.Baseline().WithRFP(), specs[i], *warmup, *measure)
		}
		rows[i] = r
	})

	sort.Slice(rows, func(a, b int) bool {
		key := func(r row) float64 {
			if r.err != nil {
				return 0
			}
			switch *sortBy {
			case "ipc":
				return r.base.IPC()
			case "coverage":
				if r.rfp != nil {
					return r.rfp.RFPCoverage()
				}
				return 0
			case "gain":
				if r.rfp != nil {
					return stats.Speedup(r.base, r.rfp)
				}
				return 0
			default:
				return r.base.LoadLevelFrac(stats.LevelL1)
			}
		}
		return key(rows[a]) < key(rows[b])
	})

	var l1s, ipcs, covs, gains []float64
	nErr := 0
	for _, r := range rows {
		if r.err != nil {
			nErr++
			continue
		}
		fmt.Printf("%-22s IPC %5.2f  L1 %5.1f%%  L2 %4.1f%%  Mem %4.1f%%",
			r.spec.Name, r.base.IPC(),
			100*r.base.LoadLevelFrac(stats.LevelL1),
			100*r.base.LoadLevelFrac(stats.LevelL2),
			100*r.base.LoadLevelFrac(stats.LevelMem))
		l1s = append(l1s, r.base.LoadLevelFrac(stats.LevelL1))
		ipcs = append(ipcs, r.base.IPC())
		if r.rfp != nil {
			g := stats.Speedup(r.base, r.rfp)
			fmt.Printf("  cov %5.1f%%  gain %+5.1f%%", 100*r.rfp.RFPCoverage(), 100*g)
			covs = append(covs, r.rfp.RFPCoverage())
			gains = append(gains, g)
		}
		fmt.Println()
	}
	fmt.Printf("\nsuite means (%d/%d workloads): IPC %.2f, L1 %s",
		len(ipcs), len(rows), stats.Mean(ipcs), stats.Pct(stats.Mean(l1s)))
	if *withRFP {
		fmt.Printf(", coverage %s, geomean gain %s",
			stats.Pct(stats.Mean(covs)), stats.Pct(stats.GeoMeanSpeedup(gains)))
	}
	fmt.Println()

	if nErr > 0 {
		for _, r := range rows {
			if r.err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", r.spec.Name, r.err)
			}
		}
		fmt.Fprintf(os.Stderr, "%d of %d workloads failed\n", nErr, len(rows))
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg config.Core, spec trace.Spec, warmup, measure uint64) (*stats.Sim, error) {
	return runner.Run(ctx, runner.Job{
		Config:      cfg,
		Spec:        spec,
		WarmupUops:  warmup,
		MeasureUops: measure,
		Seeds:       1,
	})
}
