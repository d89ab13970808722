package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rfpsim/internal/fabric"
	"rfpsim/internal/obs"
	"rfpsim/internal/sample"
	"rfpsim/internal/service"
	"rfpsim/internal/sweep"
)

const (
	// spanHeader carries the client-side span ID to the instrumented
	// handler so server spans nest under the sweep call that caused them.
	spanHeader = "X-Rfpbench-Span"
	// gridWarmup is the warmup window of every grid unit; with
	// gridMeasures it keeps a miss to tens of milliseconds.
	gridWarmup = 2000
	// sampledMeasure is the window a sampled unit profiles before
	// replaying its representative intervals.
	sampledMeasure = 40000
	// A run makes at least minMisses cold misses (so miss_p90 has ten
	// samples beyond it) and each round serves about hitsPerRound memory
	// hits and diskPerRound disk reads.
	minMisses    = 100
	hitsPerRound = 5000
	diskPerRound = 1000
	// latencyParallel is the client goroutines of the hit and disk phases:
	// one request at a time, so a latency is not queued behind another.
	latencyParallel = 1
)

var gridMeasures = []uint64{8000, 12000}

// phase names the tier every /v1/sim response of a sweep must come from.
type phase string

const (
	phaseMiss phase = "miss" // cold daemon: simulate, write memory and disk
	phaseHit  phase = "hit"  // same daemon: memory tier
	phaseDisk phase = "disk" // fresh daemon on the same directory: disk tier
)

type unitKey struct{}

// exchange is one /v1/sim round trip as the client saw it.
type exchange struct {
	key    string // content address of the unit
	status int
	tier   string
	err    error
	ms     float64 // from sending the request to reading the whole body
	body   []byte
}

// recorder is the HTTP client transport of every sweep: it times each
// /v1/sim round trip until the body is read and keeps it for checking
// after the sweep, off the request path.
type recorder struct {
	base http.RoundTripper

	mu        sync.Mutex
	exchanges []exchange
	lat       map[phase][]float64 // milliseconds
	first     map[string][]byte   // the first round's miss bodies
}

func (r *recorder) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/v1/sim" {
		return r.base.RoundTrip(req)
	}
	key, _ := req.Context().Value(unitKey{}).(string)
	if id := spanID(req.Context()); id != 0 {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	t0 := time.Now()
	resp, err := r.base.RoundTrip(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
	}
	x := exchange{key: key, err: err, ms: float64(time.Since(t0).Nanoseconds()) / 1e6, body: body}
	if resp != nil {
		x.status, x.tier = resp.StatusCode, resp.Header.Get(service.CacheHeader)
	}
	r.mu.Lock()
	r.exchanges = append(r.exchanges, x)
	r.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// verify checks the exchanges of one sweep: each must be a 200 from the
// phase's tier, a miss body must equal the first round's body for its
// address, and a hit or disk body must equal this round's miss body.
// Miss bodies are stored into cold.
func (b *bench) verify(r *recorder, p phase, cold map[string][]byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, x := range r.exchanges {
		o := b.tally.begin()
		if !o.check(x.err == nil && x.status == http.StatusOK, "POST /v1/sim %.12s: status %d, %v: %s", x.key, x.status, x.err, bytes.TrimSpace(x.body)) ||
			!o.check(x.tier == string(p), "POST /v1/sim %.12s: served from %q during the %s phase", x.key, x.tier, p) {
			continue
		}
		r.lat[p] = append(r.lat[p], x.ms)
		if p != phaseMiss {
			o.check(bytes.Equal(x.body, cold[x.key]), "%s-tier body for %.12s differs from its cold-miss body", p, x.key)
			continue
		}
		cold[x.key] = x.body
		if prev, ok := r.first[x.key]; ok {
			o.check(bytes.Equal(x.body, prev), "miss body for %.12s differs between fresh daemons", x.key)
		} else {
			r.first[x.key] = x.body
		}
	}
	r.exchanges = r.exchanges[:0]
}

// timedBackend times each backend call; minus the handler's own time it
// is the sweep client's overhead. It also hands the unit's content
// address to the recorder through the request context.
type timedBackend struct {
	sweep.Backend
	b *bench
}

func (t timedBackend) Run(ctx context.Context, u sweep.Unit) (*service.SimResponse, error) {
	ctx, end := t.b.tr.begin(context.WithValue(ctx, unitKey{}, u.Key), "sweep.Backend.Run")
	defer end()
	t0 := time.Now()
	resp, err := t.Backend.Run(ctx, u)
	t.b.backendNs.Add(time.Since(t0).Nanoseconds())
	t.b.backendCalls.Add(1)
	return resp, err
}

// instrument wraps the daemon's handler to time /v1/sim server-side.
func (b *bench) instrument(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/sim" {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		_, end := b.tr.beginID(parent, "service.Handler")
		t0 := time.Now()
		h.ServeHTTP(w, r)
		b.handlerNs.Add(time.Since(t0).Nanoseconds())
		end()
	})
}

// grid expands the service grid: full-window units over the grid
// workloads under four configurations and two windows, sampled units
// under baseline and RFP, and one uploaded-trace unit. The seed shifts
// every window by a few uops, so each seed has its own content
// addresses.
func (b *bench) grid(traceWorkload string) ([]sweep.Unit, error) {
	off := b.seed % 64
	bools := []json.RawMessage{json.RawMessage("false"), json.RawMessage("true")}
	var specs []sweep.Spec
	for _, m := range gridMeasures {
		specs = append(specs, sweep.Spec{
			Name:       fmt.Sprintf("full%d", m),
			Workloads:  b.w.grid,
			Axes:       []sweep.Axis{{Knob: "rfp", Values: bools}, {Knob: "hw_prefetch", Values: bools}},
			WarmupUops: gridWarmup, MeasureUops: m + off, Seeds: 1,
		})
	}
	specs = append(specs,
		sweep.Spec{
			Name:       "sampled",
			Workloads:  b.w.grid,
			Axes:       []sweep.Axis{{Knob: "rfp", Values: bools}},
			WarmupUops: gridWarmup, MeasureUops: sampledMeasure + off, Seeds: 1,
			Sampling: &service.SamplingSpec{IntervalUops: 2000, MaxK: 4},
		},
		sweep.Spec{
			Name:       "trace",
			Workloads:  []string{traceWorkload},
			Base:       service.ConfigSpec{RFP: true},
			WarmupUops: gridWarmup, MeasureUops: gridMeasures[0] + off, Seeds: 1,
		})
	var units []sweep.Unit
	for _, s := range specs {
		u, err := s.Expand()
		if err != nil {
			return nil, err
		}
		units = append(units, u...)
	}
	return units, nil
}

// svcRound is the host-time record of one cold/repeat/restart cycle.
type svcRound struct {
	setup      time.Duration // service.New cold + median service.New on restart
	cold       time.Duration // sweep.Run of the cold phase
	upload     time.Duration // POST /v1/traces
	diskHits   float64       // disk reads of the first restarted daemon
	diskWrites float64       // disk writes of the cold daemon
}

// gridRun is the service part of a run: the grid, its uploaded trace, the
// instrumented client and every round's record.
type gridRun struct {
	units     []sweep.Unit
	raw       []byte // the uploaded .rfpt
	traceUops uint64
	transport *http.Transport
	rec       *recorder
	client    *http.Client
	rounds    []svcRound
	hist      scraped
	// Per round: memory-hit sweeps, disk-tier restarts; per run: rounds
	// enough for minMisses cold misses.
	repeats, restarts, minRounds int
}

func (b *bench) newGrid() (*gridRun, error) {
	spec, err := seededSpec(b.w.grid[0], b.seed)
	if err != nil {
		return nil, err
	}
	g := &gridRun{traceUops: 2 * (gridWarmup + gridMeasures[0] + 64)}
	if g.raw, err = encodeTrace(spec, g.traceUops); err != nil {
		return nil, err
	}
	if g.units, err = b.grid(service.TraceWorkloadPrefix + service.TraceAddress(g.raw)); err != nil {
		return nil, err
	}
	perRound := func(n int) int { return (n + len(g.units) - 1) / len(g.units) }
	g.repeats, g.restarts, g.minRounds = perRound(hitsPerRound), perRound(diskPerRound), perRound(minMisses)
	g.transport = &http.Transport{MaxConnsPerHost: b.nproc, MaxIdleConnsPerHost: b.nproc}
	g.rec = &recorder{base: g.transport, lat: map[phase][]float64{}, first: map[string][]byte{}}
	g.client = &http.Client{Transport: g.rec}
	return g, nil
}

// daemon is one in-process rfpsimd behind a loopback HTTP server, with
// the sweep backend every sweep against it uses.
type daemon struct {
	srv *service.Server
	ts  *httptest.Server
	be  sweep.Backend
}

func (d daemon) close() {
	d.ts.Close()
	d.srv.Close()
}

// startDaemon times service.New on dir (opening its disk tier), serves
// it on loopback, and opens the client's connections to it, so no
// request pays a connection set-up.
func (b *bench) startDaemon(ctx context.Context, client *http.Client, dir string) (daemon, time.Duration, error) {
	discard := slog.New(slog.NewTextHandler(io.Discard, nil))
	_, end := b.tr.begin(ctx, "service.New")
	t0 := time.Now()
	srv, err := service.New(service.Options{
		Workers: b.nproc,
		Logger:  discard,
		Fabric:  fabric.Options{Dir: dir, Logger: discard},
	})
	d := time.Since(t0)
	end()
	if err != nil {
		return daemon{}, 0, fmt.Errorf("service.New: %w", err)
	}
	ts := httptest.NewServer(b.instrument(srv.Handler()))
	be, err := sweep.NewHTTPBackend([]string{ts.URL}, sweep.HTTPBackendOptions{Client: client})
	if err != nil {
		ts.Close()
		srv.Close()
		return daemon{}, 0, fmt.Errorf("sweep backend: %w", err)
	}
	dm := daemon{srv: srv, ts: ts, be: timedBackend{be, b}}
	var wg sync.WaitGroup
	for i := 0; i < b.nproc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := b.tally.begin()
			resp, err := client.Get(dm.ts.URL + "/healthz")
			if o.check(err == nil, "GET /healthz: %v", err) {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				o.check(resp.StatusCode == http.StatusOK, "GET /healthz: status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	return dm, d, nil
}

// serviceRound runs one cold/repeat/restart cycle on a fresh directory.
func (b *bench) serviceRound(ctx context.Context, g *gridRun) error {
	ctx, endRound := b.tr.begin(ctx, "bench.service_round")
	defer endRound()
	var round svcRound
	dir := filepath.Join(b.dir, fmt.Sprintf("round%d", len(g.rounds)))
	defer os.RemoveAll(dir)
	units, rec, client := g.units, g.rec, g.client

	dm, d, err := b.startDaemon(ctx, client, dir)
	if err != nil {
		return err
	}
	round.setup = d
	round.upload = b.upload(ctx, client, dm.ts.URL, g.raw)
	cold := map[string][]byte{}
	csv, coldTime := b.sweepPhase(ctx, units, dm, nil, b.nproc)
	b.verify(rec, phaseMiss, cold)
	round.cold = coldTime
	for i := 0; i < g.repeats; i++ {
		b.sweepPhase(ctx, units, dm, csv, latencyParallel)
		b.verify(rec, phaseHit, cold)
	}
	round.diskWrites = g.hist.scrape(b, client, dm.ts.URL)["rfpsimd_fabric_disk_writes_total"]
	dm.close()

	var restartTimes []float64
	for i := 0; i < g.restarts; i++ {
		dm, d, err := b.startDaemon(ctx, client, dir)
		if err != nil {
			return err
		}
		restartTimes = append(restartTimes, float64(d))
		b.sweepPhase(ctx, units, dm, csv, latencyParallel)
		b.verify(rec, phaseDisk, cold)
		hits := g.hist.scrape(b, client, dm.ts.URL)["rfpsimd_fabric_disk_hits_total"]
		if i == 0 {
			round.diskHits = hits
		}
		dm.close()
	}
	round.setup += time.Duration(median(restartTimes))
	g.rounds = append(g.rounds, round)
	return nil
}

// upload posts the run's trace and checks the daemon stored it under its
// content address.
func (b *bench) upload(ctx context.Context, client *http.Client, url string, raw []byte) time.Duration {
	ctx, end := b.tr.begin(ctx, "service.UploadTrace")
	defer end()
	o := b.tally.begin()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/traces", bytes.NewReader(raw))
	if !o.check(err == nil, "POST /v1/traces: %v", err) {
		return 0
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	if !o.check(err == nil, "POST /v1/traces: %v", err) {
		return 0
	}
	defer resp.Body.Close()
	var info service.TraceUploadResponse
	err = json.NewDecoder(resp.Body).Decode(&info)
	d := time.Since(t0)
	o.check(err == nil && resp.StatusCode == http.StatusOK && info.Address == service.TraceAddress(raw),
		"POST /v1/traces: status %d, address %q, err %v", resp.StatusCode, info.Address, err)
	return d
}

// sweepPhase pushes the grid through sweep.Run and the HTTP backend and
// returns the aggregate CSV, which must equal want when given.
func (b *bench) sweepPhase(ctx context.Context, units []sweep.Unit, dm daemon, want []byte, parallel int) ([]byte, time.Duration) {
	o := b.tally.begin()
	ctx, end := b.tr.begin(ctx, "sweep.Run")
	t0 := time.Now()
	sum, err := sweep.Run(ctx, units, dm.be, sweep.Options{Parallel: parallel}, b.sweepMetrics)
	d := time.Since(t0)
	end()
	if !o.check(err == nil, "sweep: %v", err) {
		return nil, d
	}
	for _, f := range sum.Failed {
		o.check(false, "sweep unit %s: %v", f.Unit.Label, f.Err)
	}
	var csv bytes.Buffer
	err = sum.WriteCSV(&csv)
	o.check(err == nil && sum.Complete(), "sweep incomplete: %v", err)
	o.check(want == nil || bytes.Equal(csv.Bytes(), want), "sweep CSV differs from the cold phase's")
	return csv.Bytes(), d
}

// scraped accumulates the daemons' /metrics histograms across rounds.
type scraped struct {
	queueWait, job map[float64]float64 // cumulative counts by upper bound
	hits, misses   float64
	rejected       float64
}

// scrape reads one daemon's /metrics, folds its histograms and counters
// into s, and returns its plain samples by name.
func (s *scraped) scrape(b *bench, client *http.Client, url string) map[string]float64 {
	o := b.tally.begin()
	plain := map[string]float64{}
	resp, err := client.Get(url + "/metrics")
	if !o.check(err == nil, "GET /metrics: %v", err) {
		return plain
	}
	defer resp.Body.Close()
	if s.queueWait == nil {
		s.queueWait, s.job = map[float64]float64{}, map[float64]float64{}
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		series := line[:i]
		name, le, _ := strings.Cut(series, `{le="`)
		if le != "" {
			bound, err := strconv.ParseFloat(strings.TrimSuffix(le, `"}`), 64)
			if err != nil {
				bound = math.Inf(1)
			}
			switch name {
			case "rfpsimd_queue_wait_seconds_bucket":
				s.queueWait[bound] += v
			case "rfpsimd_job_seconds_bucket":
				s.job[bound] += v
			}
			continue
		}
		plain[series] = v
	}
	o.check(sc.Err() == nil && resp.StatusCode == http.StatusOK, "GET /metrics: status %d, %v", resp.StatusCode, sc.Err())
	s.hits += plain["rfpsimd_cache_hits_total"]
	s.misses += plain["rfpsimd_cache_misses_total"]
	s.rejected += plain["rfpsimd_jobs_rejected_total"]
	return plain
}

// histQuantile estimates a quantile from cumulative bucket counts by
// linear interpolation inside the bucket, as Prometheus does.
func histQuantile(buckets map[float64]float64, q float64) float64 {
	bounds := make([]float64, 0, len(buckets))
	for le := range buckets {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 {
		return 0
	}
	rank := q * buckets[bounds[len(bounds)-1]]
	lo, below := 0.0, 0.0
	for _, le := range bounds {
		c := buckets[le]
		if c >= rank {
			if math.IsInf(le, 1) {
				return lo
			}
			if c == below {
				return le
			}
			return lo + (le-lo)*(rank-below)/(c-below)
		}
		lo, below = le, c
	}
	return lo
}

// latency reports a tier's median and one tail percentile and fails the
// run unless at least ten samples lie beyond the tail. With block > 0 the
// samples are cut, in the order they were taken, into blocks of that
// many; each block's percentiles are taken and the median over blocks is
// reported, so one disturbed stretch of the run cannot move the figure.
// With block 0 the percentiles are taken over all samples.
func (b *bench) latency(p phase, samples []float64, tailName string, tail float64, block int) {
	if block == 0 || block > len(samples) {
		block = len(samples)
	}
	var mids, tails []float64
	for i := 0; i+block <= len(samples); i += block {
		blk := append([]float64(nil), samples[i:i+block]...)
		mids = append(mids, median(blk))
		tails = append(tails, quantile(blk, tail))
	}
	o := b.tally.begin()
	o.check(beyond(block, tail) >= 10, "%s latency: only %d samples beyond p%g", p, beyond(block, tail), 100*tail)
	b.set(string(p)+"_p50_ms", median(mids))
	b.set(tailName, median(tails))
	b.note("%s latency: %d samples in %d blocks of %d, %d beyond p%g in each", p, len(samples), len(tails), block, beyond(block, tail), 100*tail)
}

func (b *bench) serviceReport(g *gridRun) {
	units, rounds, rec, hist := g.units, g.rounds, g.rec, &g.hist
	var setups, rates, uploads, hits, writes []float64
	for _, r := range rounds {
		setups = append(setups, r.setup.Seconds())
		rates = append(rates, float64(len(units))/r.cold.Seconds())
		uploads = append(uploads, float64(r.upload.Nanoseconds())/1e6)
		hits = append(hits, r.diskHits)
		writes = append(writes, r.diskWrites)
	}
	setup := median(setups)
	b.setup += setup
	b.note("service: %d rounds of %d units; setup %.4f s (median)", len(rounds), len(units), setup)
	if !b.traced {
		b.set("sweep_units_per_s", median(rates))
		// The hit and disk tails stop below the cliffs these tiers show on
		// a two-CPU host: about one hit in fifteen overlaps a garbage-collector
		// cycle (the process's heap is small, so one runs every ~15 ms), and
		// the first reads after each restart pay the daemon's lazy set-up.
		// Beyond p90 and p75 the figures are set by how long those pauses
		// last on a shared machine, which moves 2-5x between runs.
		b.latency(phaseMiss, rec.lat[phaseMiss], "miss_p90_ms", 0.9, 0)
		b.latency(phaseHit, rec.lat[phaseHit], "hit_p90_ms", 0.9, 1000)
		b.latency(phaseDisk, rec.lat[phaseDisk], "disk_p75_ms", 0.75, 100)
		return
	}
	b.set("service.trace_upload_ms", median(uploads))
	b.set("service.queue_wait_p50_ms", 1e3*histQuantile(hist.queueWait, 0.5))
	b.set("service.job_p50_ms", 1e3*histQuantile(hist.job, 0.5))
	b.set("service.cache_hit_ratio", ratio(hist.hits, hist.hits+hist.misses))
	b.set("service.rejected", hist.rejected)
	b.set("fabric.disk_hits", median(hits))
	b.set("fabric.disk_writes", median(writes))
	calls := b.backendCalls.Load()
	b.set("sweep.client_overhead_ms", ratio(float64(b.backendNs.Load()-b.handlerNs.Load())/1e6, float64(calls)))
	b.set("sweep.retried", float64(b.sweepMetrics.Retried()))
	b.set("sweep.failed", float64(b.sweepMetrics.Failed()))
}

// serviceLayers measures the service-side layers alone on the run's
// grid: content addressing, the disk cache on the cold bodies, trace
// decoding, and the sampled units re-run in-process through sample.RunResult
// (whose response must be byte-identical to the daemon's).
func (b *bench) serviceLayers(ctx context.Context, g *gridRun) {
	units, rec := g.units, g.rec
	ctx, endAll := b.tr.begin(ctx, "bench.service_layers")
	defer endAll()

	var addr calls
	_, end := b.tr.begin(ctx, "service.ContentAddress")
	for addr.d < minReplay {
		t0 := time.Now()
		for _, u := range units {
			// Expand already derived every address; only the time counts.
			_, _ = service.ContentAddress(u.Req)
		}
		addr.add(time.Since(t0), uint64(len(units)))
	}
	end()
	b.set("service.address_us", addr.nsPerCall()/1e3)

	var get, put calls
	o := b.tally.begin()
	dc, err := fabric.OpenDiskCache(filepath.Join(b.dir, "diskcache"), 0)
	if o.check(err == nil, "fabric.OpenDiskCache: %v", err) {
		for _, u := range units {
			body := rec.first[u.Key]
			_, end := b.tr.begin(ctx, "fabric.DiskCache.Put")
			t0 := time.Now()
			err := dc.Put(u.Key, body)
			put.add(time.Since(t0), 1)
			end()
			o.check(err == nil, "disk cache put: %v", err)
		}
		for _, u := range units {
			_, end := b.tr.begin(ctx, "fabric.DiskCache.Get")
			t0 := time.Now()
			got, ok := dc.Get(u.Key)
			get.add(time.Since(t0), 1)
			end()
			o.check(ok && bytes.Equal(got, rec.first[u.Key]), "disk cache get %.12s: found %v, body differs", u.Key, ok)
		}
	}
	b.set("fabric.disk_put_us", put.nsPerCall()/1e3)
	b.set("fabric.disk_get_us", get.nsPerCall()/1e3)

	b.decodeTrace(ctx, g.raw, g.traceUops)

	var profile, ff time.Duration
	var sampled, measured uint64
	for _, u := range units {
		if u.Req.Sampling == nil {
			continue
		}
		o := b.tally.begin()
		job, _, err := service.ResolveJob(u.Req)
		if !o.check(err == nil, "resolve %s: %v", u.Label, err) {
			continue
		}
		jctx, tim := obs.WithTimings(ctx)
		jctx, end := b.tr.begin(jctx, "sample.RunResult")
		res, err := sample.RunResult(jctx, job)
		end()
		if !o.check(err == nil, "sample %s: %v", u.Label, err) {
			continue
		}
		resp := service.Response(job, res)
		body, err := json.Marshal(resp)
		o.check(err == nil && bytes.Equal(append(body, '\n'), rec.first[u.Key]),
			"sample %s: in-process result differs from the daemon's body", u.Label)
		profile += tim.Stage(obs.StageProfile)
		ff += tim.Stage(obs.StageFastForward)
		sampled += resp.SampledUops
		measured += resp.MeasureUops
	}
	b.set("sample.profile_s", profile.Seconds())
	b.set("sample.fastforward_s", ff.Seconds())
	b.set("sample.sampled_frac", ratio(float64(sampled), float64(measured)))
}
