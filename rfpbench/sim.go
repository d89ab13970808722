package main

import (
	"context"
	"fmt"
	"time"

	"rfpsim/internal/config"
	"rfpsim/internal/core"
	"rfpsim/internal/obs"
	"rfpsim/internal/runner"
	"rfpsim/internal/stats"
	"rfpsim/internal/trace"
)

// panelJob is one full-window simulation of the workload's panel.
type panelJob struct {
	// catalog is the workload as the catalog defines it; spec is the same
	// workload with its generator seed derived from the benchmark seed.
	catalog, spec trace.Spec
	cfg           config.Core
	rfp           bool
	// sim is the job's result on the catalog stream, the source of every
	// simulated metric, so those repeat exactly across runs and seeds.
	sim *stats.Sim
	// ref is the job's result in the first timed round; every later round
	// must reproduce it exactly.
	ref *stats.Sim
	// times holds the job's host times, one entry per round.
	times []jobTime
}

// jobTime is the host time of one run of a panel job.
type jobTime struct {
	traced    bool
	setup     time.Duration // core.New + WarmCaches
	run       time.Duration // runner.Run
	warmup    time.Duration // obs stages of runner.Run
	measure   time.Duration
	aggregate time.Duration
}

// seededSpec returns the catalog workload with its generator seed derived
// from the benchmark seed; the program only ever sees the generated
// stream.
func seededSpec(name string, seed uint64) (trace.Spec, error) {
	spec, ok := trace.ByName(name)
	if !ok {
		return spec, fmt.Errorf("workload %q is not in the catalog", name)
	}
	spec.Seed = splitmix(spec.Seed ^ splitmix(seed))
	return spec, nil
}

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

func (b *bench) panel() ([]*panelJob, error) {
	var jobs []*panelJob
	for _, name := range b.w.panel {
		spec, err := seededSpec(name, b.seed)
		if err != nil {
			return nil, err
		}
		catalog, _ := trace.ByName(name)
		jobs = append(jobs,
			&panelJob{catalog: catalog, spec: spec, cfg: config.Baseline()},
			&panelJob{catalog: catalog, spec: spec, cfg: config.Baseline().WithRFP(), rfp: true})
	}
	return jobs, nil
}

// run executes one panel job on spec and checks it committed the uops it
// requested. The core retires whole commit groups, so the window closes
// in the cycle that reaches the request: up to Width-1 uops over.
func (b *bench) run(ctx context.Context, j *panelJob, spec trace.Spec) (*stats.Sim, *op) {
	o := b.tally.begin()
	st, err := runner.Run(ctx, runner.Job{Config: j.cfg, Spec: spec, WarmupUops: b.w.warmup, MeasureUops: b.w.measure, Seeds: 1})
	name := spec.Name + "/" + j.cfg.Name
	if !o.check(err == nil, "sim job %s: %v", name, err) ||
		!o.check(st.Instructions >= b.w.measure && st.Instructions < b.w.measure+uint64(j.cfg.Width),
			"sim job %s committed %d uops, requested %d", name, st.Instructions, b.w.measure) {
		return nil, o
	}
	return st, o
}

// newPanel builds the panel and simulates it on the catalog streams,
// untimed: that pass warms the host up and yields the simulated metrics.
func (b *bench) newPanel(ctx context.Context) ([]*panelJob, error) {
	jobs, err := b.panel()
	if err != nil {
		return nil, err
	}
	for _, j := range jobs {
		if j.sim, _ = b.run(ctx, j, j.catalog); j.sim == nil {
			return nil, fmt.Errorf("sim job %s/%s failed on the catalog stream", j.catalog.Name, j.cfg.Name)
		}
	}
	return jobs, nil
}

// simRound passes over the panel on the seeded streams, one job at a
// time. A traced run traces every other pass, so traced and untraced
// rates give the tracing overhead.
func (b *bench) simRound(ctx context.Context, jobs []*panelJob, round int) {
	tr := offTracer
	if b.traced && round%2 == 0 {
		tr = b.tr
	}
	ctx, endRound := tr.begin(ctx, "bench.sim_round")
	defer endRound()
	for _, j := range jobs {
		jt := jobTime{traced: tr.on}
		gen := j.spec.New()
		_, end := tr.begin(ctx, "core.New")
		t0 := time.Now()
		c := core.New(j.cfg, gen)
		jt.setup = time.Since(t0)
		end()
		_, end = tr.begin(ctx, "core.WarmCaches")
		t0 = time.Now()
		c.WarmCaches()
		jt.setup += time.Since(t0)
		end()

		jctx, tim := obs.WithTimings(ctx)
		jctx, end = tr.begin(jctx, "runner.Run")
		t0 = time.Now()
		st, o := b.run(jctx, j, j.spec)
		jt.run = time.Since(t0)
		end()
		jt.warmup = tim.Stage(obs.StageWarmup)
		jt.measure = tim.Stage(obs.StageMeasure)
		jt.aggregate = tim.Stage(obs.StageAggregate)
		if st == nil {
			continue
		}
		if j.ref == nil {
			j.ref = st
		} else {
			o.check(*st == *j.ref, "sim job %s/%s: stats differ from its first run in this process", j.spec.Name, j.cfg.Name)
		}
		j.times = append(j.times, jt)
	}
}

// perJob sums, over the jobs keep selects, each job's median over its
// traced or untraced rounds of the time f picks. A median per job keeps
// one disturbed job from moving a whole round.
func perJob(jobs []*panelJob, traced bool, keep func(*panelJob) bool, f func(jobTime) time.Duration) time.Duration {
	var sum time.Duration
	for _, j := range jobs {
		if !keep(j) {
			continue
		}
		var xs []float64
		for _, t := range j.times {
			if t.traced == traced {
				xs = append(xs, float64(f(t)))
			}
		}
		sum += time.Duration(median(xs))
	}
	return sum
}

func all(*panelJob) bool { return true }

// simReport turns the panel's host times and reference results into
// metrics: end-to-end ones from an untraced run, per-layer ones from a
// traced run.
func (b *bench) simReport(jobs []*panelJob, rounds int) {
	host := func(t jobTime) time.Duration { return t.warmup + t.measure }
	uops := float64(uint64(len(jobs)) * (b.w.warmup + b.w.measure))
	rate := uops / perJob(jobs, false, all, host).Seconds()
	setup := perJob(jobs, false, all, func(t jobTime) time.Duration { return t.setup }).Seconds()
	b.setup += setup
	b.note("sim: %d rounds of %d jobs, %d+%d uops each; setup %.4f s", rounds, len(jobs), b.w.warmup, b.w.measure, setup)

	// Simulated metrics come from the catalog streams; the RFP jobs give
	// the per-layer counts. Host time per uop and per cycle divides by the
	// seeded streams' first results.
	var speedups []float64
	var rfpSum, allSum stats.Sim
	for i := 0; i+1 < len(jobs); i += 2 {
		speedups = append(speedups, stats.Speedup(jobs[i].sim, jobs[i+1].sim))
		stats.Accumulate(&rfpSum, jobs[i+1].sim)
	}
	for _, j := range jobs {
		if j.ref != nil {
			stats.Accumulate(&allSum, j.ref)
		}
	}
	if !b.traced {
		b.set("sim_uops_per_s", rate)
		b.set("rfp_speedup_pct", 100*stats.GeoMeanSpeedup(speedups))
		b.set("rfp_coverage_pct", 100*rfpSum.RFPCoverage())
		return
	}
	tracedRate := uops / perJob(jobs, true, all, host).Seconds()
	b.set("bench.tracing_overhead_ratio", tracedRate/rate)
	measure := perJob(jobs, false, all, func(t jobTime) time.Duration { return t.measure })
	isRFP := func(j *panelJob) bool { return j.rfp }
	isBase := func(j *panelJob) bool { return !j.rfp }
	b.set("core.setup_ms", 1e3*setup)
	b.set("core.host_ns_per_uop", float64(measure.Nanoseconds())/float64(allSum.Instructions))
	b.set("core.host_ns_per_cycle", float64(measure.Nanoseconds())/float64(allSum.Cycles))
	b.set("core.warmup_s", perJob(jobs, false, all, func(t jobTime) time.Duration { return t.warmup }).Seconds())
	b.set("core.measure_s", measure.Seconds())
	b.set("core.rfp_host_overhead_pct",
		100*(perJob(jobs, false, isRFP, host).Seconds()/perJob(jobs, false, isBase, host).Seconds()-1))
	b.set("runner.aggregate_us", float64(perJob(jobs, false, all, func(t jobTime) time.Duration { return t.aggregate }).Nanoseconds())/1e3)
	var runs []float64
	for _, j := range jobs {
		for _, t := range j.times {
			runs = append(runs, t.run.Seconds())
		}
	}
	b.set("runner.job_p50_s", median(runs))

	s := &rfpSum
	kuops := float64(s.Instructions) / 1e3
	retired, load, exec, empty := s.Slots.Frac()
	b.set("core.ipc", s.IPC())
	b.set("core.slots_retired_frac", retired)
	b.set("core.slots_stall_load_frac", load)
	b.set("core.slots_stall_exec_frac", exec)
	b.set("core.slots_stall_empty_frac", empty)
	b.set("core.replays_pki", float64(s.Replays)/kuops)
	b.set("mem.load_frac_l1", s.LoadLevelFrac(stats.LevelL1)+s.LoadLevelFrac(stats.LevelMSHR))
	b.set("mem.load_frac_l2", s.LoadLevelFrac(stats.LevelL2))
	b.set("mem.load_frac_llc", s.LoadLevelFrac(stats.LevelLLC))
	b.set("mem.load_frac_dram", s.LoadLevelFrac(stats.LevelMem))
	b.set("mem.l1_accesses_pki", float64(s.L1Accesses)/kuops)
	b.set("mem.dtlb_mpki", float64(s.DTLBMisses)/kuops)
	b.set("predictor.branch_mpki", float64(s.BranchMispredicts)/kuops)
	b.set("rfp.injected_frac", s.RFPInjectedFrac())
	b.set("rfp.executed_frac", s.RFPExecutedFrac())
	b.set("rfp.useful_frac", s.RFPCoverage())
	b.set("rfp.wrong_frac", s.RFPWrongFrac())
	b.set("rfp.accuracy", ratio(float64(s.RFP.Useful), float64(s.RFP.Injected)))
	b.set("rfp.port_conflicts_pki", float64(s.RFP.PortConflicts)/kuops)
}

// ratio returns num/den, or 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
