package sweep

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"rfpsim/internal/experiments"
	"rfpsim/internal/obs"
	"rfpsim/internal/service"
)

// Options configures one orchestrator run.
type Options struct {
	// Parallel bounds concurrent units in flight (0 = 4; against an HTTP
	// fleet, size it to the fleet's aggregate worker count).
	Parallel int
	// CheckpointPath, when set, journals every completed unit and (with
	// Resume) skips units already recorded.
	CheckpointPath string
	// Resume replays the checkpoint before running; without it an
	// existing checkpoint is appended to but not consulted.
	Resume bool
	// Progress, when set, receives a one-line progress/ETA report every
	// ProgressEvery (default 5s) and once at the end.
	Progress      io.Writer
	ProgressEvery time.Duration
}

func (o Options) parallel() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return 4
}

func (o Options) progressEvery() time.Duration {
	if o.ProgressEvery > 0 {
		return o.ProgressEvery
	}
	return 5 * time.Second
}

// UnitError is one terminally failed unit.
type UnitError struct {
	Unit Unit
	Err  error
}

// Summary is the outcome of an orchestrator run.
type Summary struct {
	// Units is the sweep grid in deterministic order.
	Units []Unit
	// Results maps unit key to result for every completed unit (including
	// checkpoint-replayed ones).
	Results map[string]*service.SimResponse
	// Timings maps unit key to the per-stage wall-clock breakdown of
	// units executed by THIS run — checkpoint-replayed units have none
	// (their cost was paid by an earlier run). Local-backend timings come
	// straight from the runner; HTTP-backend timings are the executing
	// daemon's, parsed from the response header. Timings are telemetry
	// and deliberately kept out of Results, the checkpoint journal and
	// the aggregate CSV, all of which are pinned deterministic.
	Timings map[string]*obs.Timings
	// Skipped counts units satisfied by the checkpoint.
	Skipped int
	// Failed lists units that exhausted their retries.
	Failed []UnitError
}

// Complete reports whether every unit has a result.
func (s *Summary) Complete() bool { return len(s.Results) >= len(s.Units) }

// Run executes the sweep: checkpoint replay, bounded-parallel dispatch to
// the backend, journalling, and progress reporting. Cancelling ctx stops
// dispatch and returns ctx's error; completed units are already journalled,
// so a later Resume run picks up exactly the missing ones. Unit failures
// do not abort the sweep — the rest of the grid still runs — but are
// reported in the summary and as an error.
func Run(ctx context.Context, units []Unit, backend Backend, opts Options, m *Metrics) (*Summary, error) {
	if m == nil {
		m = &Metrics{}
	}
	m.total.Store(uint64(len(units)))
	sum := &Summary{
		Units:   units,
		Results: make(map[string]*service.SimResponse, len(units)),
		Timings: make(map[string]*obs.Timings, len(units)),
	}

	if opts.Resume && opts.CheckpointPath != "" {
		st, err := LoadCheckpoint(opts.CheckpointPath)
		if err != nil {
			return nil, err
		}
		for _, u := range units {
			if resp, ok := st.Results[u.Key]; ok {
				sum.Results[u.Key] = resp
				sum.Skipped++
			}
		}
		m.skipped.Store(uint64(sum.Skipped))
		if opts.Progress != nil && (sum.Skipped > 0 || st.TruncatedTail) {
			fmt.Fprintf(opts.Progress, "rfpsweep: checkpoint replayed %d/%d units (%d journal entries, %d duplicates, truncated tail: %t)\n",
				sum.Skipped, len(units), st.Entries, st.Duplicates, st.TruncatedTail)
		}
	}

	var journal *Journal
	if opts.CheckpointPath != "" {
		var err error
		journal, err = OpenJournal(opts.CheckpointPath)
		if err != nil {
			return nil, err
		}
		defer journal.Close()
	}

	pending := make([]Unit, 0, len(units))
	for _, u := range units {
		if _, done := sum.Results[u.Key]; !done {
			pending = append(pending, u)
		}
	}

	start := time.Now()
	progress := func(final bool) {
		done, failed := m.done.Load(), m.failed.Load()
		finished := uint64(sum.Skipped) + done + failed
		pct := 100 * float64(finished) / float64(max(len(units), 1))
		eta := "?"
		if done > 0 && !final {
			remaining := uint64(len(units)) - finished
			eta = (time.Duration(float64(time.Since(start)) / float64(done) * float64(remaining))).Round(time.Second).String()
		}
		if final {
			eta = "done"
		}
		fmt.Fprintf(opts.Progress, "rfpsweep: %d/%d units (%.0f%%), %d skipped, %d failed, %d retries, elapsed %s, eta %s\n",
			finished, len(units), pct, sum.Skipped, failed, m.retried.Load(), time.Since(start).Round(time.Second), eta)
	}
	stopProgress := make(chan struct{})
	var progressWG sync.WaitGroup
	if opts.Progress != nil {
		progressWG.Add(1)
		go func() {
			defer progressWG.Done()
			t := time.NewTicker(opts.progressEvery())
			defer t.Stop()
			for {
				select {
				case <-stopProgress:
					return
				case <-t.C:
					progress(false)
				}
			}
		}()
	}

	var (
		mu      sync.Mutex
		wg      sync.WaitGroup
		sem     = make(chan struct{}, opts.parallel())
		loopErr error
	)
	for _, u := range pending {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(u Unit) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				return
			}
			defer func() { <-sem }()
			// Each unit gets its own run ID and timings collector. The
			// local backend's runner fills the collector through the
			// context; the HTTP backend forwards the ID to the daemon
			// (whose logs then correlate with ours) and merges the
			// daemon's timings header back into the collector.
			uctx, tim := obs.WithTimings(obs.WithRunID(ctx, obs.NewRunID()))
			ulog := obs.Logger(uctx).With("unit", u.Label, "key", u.Key[:12])
			ulog.Debug("unit start", "backend", backend.Name())
			resp, err := backend.Run(uctx, u)
			if err != nil {
				if ctx.Err() != nil {
					return // cancelled, not failed: the unit stays pending
				}
				ulog.Warn("unit failed", "err", err.Error())
				m.failed.Add(1)
				mu.Lock()
				sum.Failed = append(sum.Failed, UnitError{Unit: u, Err: err})
				mu.Unlock()
				return
			}
			ulog.Debug("unit done", "ipc", resp.IPC, "timings", tim.String())
			mu.Lock()
			sum.Results[u.Key] = resp
			sum.Timings[u.Key] = tim
			var jerr error
			if journal != nil {
				jerr = journal.Record(u, resp)
			}
			if jerr != nil && loopErr == nil {
				loopErr = jerr
			}
			mu.Unlock()
			m.done.Add(1)
		}(u)
	}
	wg.Wait()
	close(stopProgress)
	progressWG.Wait()
	if opts.Progress != nil {
		progress(true)
	}

	if loopErr != nil {
		return sum, loopErr
	}
	if err := ctx.Err(); err != nil {
		return sum, err
	}
	if n := len(sum.Failed); n > 0 {
		return sum, fmt.Errorf("sweep: %d of %d units failed; first: %s: %w",
			n, len(units), sum.Failed[0].Unit.Label, sum.Failed[0].Err)
	}
	return sum, nil
}

// WriteCSV renders completed units in deterministic grid order through
// WriteMetricsCSV. Two complete runs of the same grid — whatever backend
// executed them, in whatever order, across however many crash/resume
// cycles — produce byte-identical files.
func (s *Summary) WriteCSV(w io.Writer) error {
	var rows []MetricsRow
	for _, u := range s.Units {
		if resp, ok := s.Results[u.Key]; ok {
			rows = append(rows, MetricsRow{Label: u.Label, Resp: resp})
		}
	}
	return WriteMetricsCSV(w, rows)
}

// MetricsRow is one labelled simulation result of a metrics CSV.
type MetricsRow struct {
	Label string
	Resp  *service.SimResponse
}

// WriteMetricsCSV writes the schema cmd/experiments emits
// (experiment,metric,value): the header, then per row an ipc, a cycles
// and an instructions row. Sweep aggregates and the rfpsimd console both
// render through it, so their CSVs of the same simulations differ only in
// labels.
func WriteMetricsCSV(w io.Writer, rows []MetricsRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(experiments.MetricsCSVHeader); err != nil {
		return err
	}
	for _, r := range rows {
		if r.Resp == nil {
			return fmt.Errorf("sweep: metrics row %q has no result", r.Label)
		}
		records := [][]string{
			{r.Label, "ipc", experiments.FormatMetric(r.Resp.IPC)},
			{r.Label, "cycles", experiments.FormatCount(r.Resp.Cycles)},
			{r.Label, "instructions", experiments.FormatCount(r.Resp.Instructions)},
		}
		for _, rec := range records {
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTimingsCSV renders the per-stage wall-clock breakdown of every
// unit this run executed, as experiment,stage,seconds rows in grid order
// with stages in pipeline order. Unlike WriteCSV this output is NOT
// deterministic — it measures this run's wall time — which is exactly why
// it lives in a separate file (rfpsweep -timings) instead of the pinned
// aggregate CSV.
func (s *Summary) WriteTimingsCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"experiment", "stage", "seconds"}); err != nil {
		return err
	}
	for _, u := range s.Units {
		tim, ok := s.Timings[u.Key]
		if !ok {
			continue // checkpoint-replayed or failed: no cost paid this run
		}
		for _, stage := range obs.Stages() {
			row := []string{u.Label, stage,
				strconv.FormatFloat(tim.Stage(stage).Seconds(), 'f', 6, 64)}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
