package service

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"rfpsim/internal/isa"
	"rfpsim/internal/runner"
	"rfpsim/internal/sample"
	"rfpsim/internal/trace"
	"rfpsim/internal/tracefile"
)

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	svc, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

func postSim(t *testing.T, ts *httptest.Server, req SimRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sim", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// quickReq is a small but real simulation (~tens of ms).
func quickReq() SimRequest {
	return SimRequest{
		Workload:    "spec06_mcf",
		Config:      ConfigSpec{RFP: true},
		WarmupUops:  5000,
		MeasureUops: 10000,
	}
}

// TestCacheHitIsByteIdentical is the end-to-end determinism/caching check:
// two identical POSTs return byte-identical bodies, the second from the
// cache, and /metrics reflects one miss and one hit.
func TestCacheHitIsByteIdentical(t *testing.T) {
	svc, ts := newTestServer(t, Options{Workers: 2})
	resp1, body1 := postSim(t, ts, quickReq())
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first POST: %d %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Rfpsimd-Cache"); got != "miss" {
		t.Errorf("first POST cache header = %q, want miss", got)
	}
	resp2, body2 := postSim(t, ts, quickReq())
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second POST: %d %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-Rfpsimd-Cache"); got != "hit" {
		t.Errorf("second POST cache header = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Errorf("cached body differs from computed body:\n%s\nvs\n%s", body1, body2)
	}
	var sr SimResponse
	if err := json.Unmarshal(body1, &sr); err != nil {
		t.Fatalf("bad response body: %v", err)
	}
	if sr.Cycles == 0 || sr.Instructions == 0 || sr.Stats == nil {
		t.Errorf("response missing simulation results: %+v", sr)
	}
	if h, m := svc.Metrics().cacheHits.Load(), svc.Metrics().cacheMisses.Load(); h != 1 || m != 1 {
		t.Errorf("cache metrics hits=%d misses=%d, want 1/1", h, m)
	}
}

// TestServiceMatchesDirectRunner pins the service path to the batch path:
// the same job submitted over HTTP and run through runner.Run (what
// cmd/rfpsim executes) must report the same cycle count.
func TestServiceMatchesDirectRunner(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	resp, body := postSim(t, ts, quickReq())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST: %d %s", resp.StatusCode, body)
	}
	var sr SimResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}

	spec, ok := trace.ByName("spec06_mcf")
	if !ok {
		t.Fatal("spec06_mcf missing from catalog")
	}
	cfg, err := ConfigSpec{RFP: true}.Build()
	if err != nil {
		t.Fatal(err)
	}
	st, err := runner.Run(context.Background(), runner.Job{
		Config: cfg, Spec: spec, WarmupUops: 5000, MeasureUops: 10000, Seeds: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles != sr.Cycles || st.Instructions != sr.Instructions {
		t.Errorf("service path diverges from direct runner: service %d cycles / %d uops, direct %d / %d",
			sr.Cycles, sr.Instructions, st.Cycles, st.Instructions)
	}
}

// TestSampledSimEndpoint runs a sampled job over HTTP end to end: the
// response must echo the normalized sampling spec, summarize the replay
// plan, match the in-process sample.RunResult path exactly, and cache
// separately from the full-window twin.
func TestSampledSimEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	req := SimRequest{
		Workload:    "spec06_mcf",
		Config:      ConfigSpec{RFP: true},
		WarmupUops:  10000,
		MeasureUops: 20000,
		Sampling:    &SamplingSpec{},
	}
	resp, body := postSim(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST: %d %s", resp.StatusCode, body)
	}
	var sr SimResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Sampling == nil || sr.Sampling.IntervalUops != 2000 || sr.Sampling.MaxK != 5 {
		t.Fatalf("response sampling echo = %+v, want normalized defaults", sr.Sampling)
	}
	if sr.SampledPoints < 1 || sr.SampledPoints > 5 {
		t.Errorf("sampled points = %d, want 1..5", sr.SampledPoints)
	}
	if sr.SampledUops != uint64(sr.SampledPoints)*2000 {
		t.Errorf("sampled uops = %d with %d points", sr.SampledUops, sr.SampledPoints)
	}

	job, _, err := ResolveJob(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sample.RunResult(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cycles != sr.Cycles || res.Stats.Instructions != sr.Instructions {
		t.Errorf("service sampled path diverges from sample.RunResult: service %d cycles / %d uops, direct %d / %d",
			sr.Cycles, sr.Instructions, res.Stats.Cycles, res.Stats.Instructions)
	}

	// The full-window twin must compute fresh (distinct cache entry) and
	// report no sampling block.
	full := req
	full.Sampling = nil
	respF, bodyF := postSim(t, ts, full)
	if respF.StatusCode != http.StatusOK {
		t.Fatalf("full POST: %d %s", respF.StatusCode, bodyF)
	}
	if got := respF.Header.Get("X-Rfpsimd-Cache"); got != "miss" {
		t.Errorf("full twin served from cache (%q) — sampled and full keys collide", got)
	}
	var fr SimResponse
	if err := json.Unmarshal(bodyF, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Sampling != nil || fr.SampledPoints != 0 || fr.SampledUops != 0 {
		t.Errorf("full run reports sampling fields: %+v", fr)
	}
}

// TestTimeoutCancelsPromptlyWithoutLeak submits a job that cannot finish
// within its 1ms budget and asserts it returns quickly with a cancellation
// status, that /metrics records it, and that no worker or handler
// goroutine leaks (NumGoroutine settles back).
func TestTimeoutCancelsPromptlyWithoutLeak(t *testing.T) {
	svc, ts := newTestServer(t, Options{Workers: 1})
	before := runtime.NumGoroutine()

	req := quickReq()
	req.MeasureUops = 40_000_000 // minutes of simulation if not cancelled
	req.TimeoutMS = 1
	start := time.Now()
	resp, body := postSim(t, ts, req)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("status = %d %s, want 408", resp.StatusCode, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Status != "cancelled" {
		t.Errorf("body = %s, want status cancelled", body)
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancellation took %s, want prompt return", elapsed)
	}
	if got := svc.Metrics().jobsCancelled.Load(); got != 1 {
		t.Errorf("jobs cancelled metric = %d, want 1", got)
	}

	// The worker must be idle again and nothing may have leaked.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		http.DefaultClient.CloseIdleConnections()
		if svc.Metrics().jobsRunning.Load() == 0 && runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines did not settle: before=%d now=%d running=%d",
		before, runtime.NumGoroutine(), svc.Metrics().jobsRunning.Load())
}

// TestMetricsEndpoint checks the Prometheus exposition after a mixed
// workload of outcomes.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	postSim(t, ts, quickReq()) // miss + ok
	postSim(t, ts, quickReq()) // hit
	timedOut := quickReq()
	timedOut.MeasureUops = 40_000_000
	timedOut.TimeoutMS = 1
	postSim(t, ts, timedOut) // cancelled

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	text := string(raw)
	for _, want := range []string{
		"rfpsimd_jobs_done_total{status=\"ok\"} 1",
		"rfpsimd_jobs_done_total{status=\"cancelled\"} 1",
		"rfpsimd_cache_hits_total 1",
		"rfpsimd_cache_misses_total 2", // the ok job and the cancelled job
		"rfpsimd_jobs_queued 0",
		"rfpsimd_jobs_running 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, text)
		}
	}
	if !strings.Contains(text, "rfpsimd_sim_cycles_total") {
		t.Errorf("/metrics missing sim cycle counter")
	}
}

// TestResultCacheEviction: with room for two bodies, a third distinct
// request evicts the least recently used one, the eviction is counted in
// rfpsimd_cache_evictions_total and /healthz reports the capped size.
func TestResultCacheEviction(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, CacheEntries: 2})
	for _, w := range []string{"spec06_mcf", "spec06_gcc", "spec06_hmmer"} {
		req := quickReq()
		req.Workload = w
		if resp, body := postSim(t, ts, req); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", w, resp.StatusCode, body)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), "rfpsimd_cache_evictions_total 1\n") {
		t.Errorf("/metrics missing rfpsimd_cache_evictions_total 1 in:\n%s", raw)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h["cache_entries"] != float64(2) {
		t.Errorf("healthz cache_entries = %v, want 2", h["cache_entries"])
	}
}

// TestBackpressure429 fills the one-deep queue behind a slow job and
// asserts the next job is rejected with 429 rather than queued unboundedly.
func TestBackpressure429(t *testing.T) {
	svc, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})

	slow := quickReq()
	slow.MeasureUops = 40_000_000
	slow.TimeoutMS = (10 * time.Second).Milliseconds()

	// The blocking requests are cancelled via ctx when the test ends, so
	// Cleanup's svc.Close() drains promptly.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	post := func(r SimRequest) {
		b, _ := json.Marshal(r)
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sim", bytes.NewReader(b))
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}
	waitFor := func(desc string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s (running=%d queued=%d)",
			desc, svc.Metrics().jobsRunning.Load(), svc.Metrics().jobsQueued.Load())
	}

	// Occupy the worker, then the single queue slot, sequentially so the
	// second job cannot race the worker for the buffer.
	first := slow
	go post(first)
	waitFor("worker busy", func() bool { return svc.Metrics().jobsRunning.Load() == 1 })
	second := slow
	second.MeasureUops++ // distinct cache key
	go post(second)
	waitFor("queue full", func() bool { return svc.Metrics().jobsQueued.Load() == 1 })

	third := slow
	third.MeasureUops += 7
	b, _ := json.Marshal(third)
	resp, err := http.Post(ts.URL+"/v1/sim", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != retryAfterQueueFull {
		t.Errorf("429 Retry-After = %q, want %q", got, retryAfterQueueFull)
	}
	if got := svc.Metrics().jobsRejected.Load(); got != 1 {
		t.Errorf("jobs rejected metric = %d, want 1", got)
	}
}

// TestTraceUpload round-trips an uploaded .rfpt trace through the service.
func TestTraceUpload(t *testing.T) {
	spec, ok := trace.ByName("spec06_hmmer")
	if !ok {
		t.Fatal("spec06_hmmer missing")
	}
	gen := spec.New()
	var buf bytes.Buffer
	w := tracefile.NewWriter(&buf)
	var op isa.MicroOp
	for i := 0; i < 30000; i++ {
		if !gen.Next(&op) {
			break
		}
		if err := w.Write(&op); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Options{Workers: 1})
	req := SimRequest{
		TraceB64:    base64.StdEncoding.EncodeToString(buf.Bytes()),
		Config:      ConfigSpec{RFP: true},
		WarmupUops:  5000,
		MeasureUops: 10000,
	}
	resp, body := postSim(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace POST: %d %s", resp.StatusCode, body)
	}
	var sr SimResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Instructions == 0 || !strings.HasPrefix(sr.Workload, "trace:") {
		t.Errorf("trace run result looks wrong: %+v", sr)
	}
	// Identical upload is a cache hit too (content-addressed).
	resp2, body2 := postSim(t, ts, req)
	if got := resp2.Header.Get("X-Rfpsimd-Cache"); got != "hit" {
		t.Errorf("second trace POST cache header = %q, want hit", got)
	}
	if !bytes.Equal(body, body2) {
		t.Error("cached trace body differs")
	}
}

// TestRequestValidation exercises the 400 paths.
func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	cases := []SimRequest{
		{},                             // neither workload nor trace
		{Workload: "no_such_workload"}, // unknown workload
		{Workload: "spec06_mcf", TraceB64: "AAAA"},                               // both set
		{Workload: "spec06_mcf", Config: ConfigSpec{VP: "bogus"}},                // bad vp
		{Workload: "spec06_mcf", Config: ConfigSpec{PAT: true}},                  // RFP knob without rfp
		{Workload: "spec06_mcf", Seeds: 1000000},                                 // over the uop ceiling
		{TraceB64: "!!!not-base64!!!"},                                           // bad base64
		{TraceB64: base64.StdEncoding.EncodeToString([]byte("bogus")), Seeds: 2}, // trace + seeds
	}
	for i, req := range cases {
		resp, body := postSim(t, ts, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status = %d (%s), want 400", i, resp.StatusCode, body)
		}
	}
	if resp, err := http.Get(ts.URL + "/v1/sim"); err == nil {
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /v1/sim = %d, want 405", resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestHealthzAndWorkloads smoke-tests the auxiliary endpoints.
func TestHealthzAndWorkloads(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d", resp.StatusCode)
	}
	var h map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil || h["status"] != "ok" {
		t.Errorf("healthz body = %v (%v)", h, err)
	}

	resp2, err := http.Get(ts.URL + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var wl []map[string]string
	if err := json.NewDecoder(resp2.Body).Decode(&wl); err != nil {
		t.Fatal(err)
	}
	if len(wl) != len(trace.Catalog()) {
		t.Errorf("workloads listed %d, want %d", len(wl), len(trace.Catalog()))
	}
}

// TestDrainRefusesNewJobs verifies graceful-drain semantics: after Close,
// enqueue refuses with a draining signal and healthz reports it.
func TestDrainRefusesNewJobs(t *testing.T) {
	svc, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	svc.Close()

	b, _ := json.Marshal(quickReq())
	resp, err := http.Post(ts.URL+"/v1/sim", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("POST while draining = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != retryAfterDrain {
		t.Errorf("503 Retry-After = %q, want %q", got, retryAfterDrain)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/healthz while draining = %d, want 503", hresp.StatusCode)
	}
	if got := hresp.Header.Get("Retry-After"); got != retryAfterDrain {
		t.Errorf("/healthz draining Retry-After = %q, want %q", got, retryAfterDrain)
	}
}

// TestChecksKnob pins the checks wire knob: a checked job runs with the
// invariant layer on (the stats block carries the checker counters and,
// on a healthy model, zero violations feed the
// rfpsim_check_violations_total counter), keys a distinct content
// address from its unchecked twin, and reports identical timing results
// — the checker is observability, never behavior.
func TestChecksKnob(t *testing.T) {
	svc, ts := newTestServer(t, Options{Workers: 2})
	plain := quickReq()
	checked := quickReq()
	checked.Config.Checks = true

	kp, err := ContentAddress(plain)
	if err != nil {
		t.Fatal(err)
	}
	kc, err := ContentAddress(checked)
	if err != nil {
		t.Fatal(err)
	}
	if kp == kc {
		t.Fatal("checks knob must key a distinct content address")
	}

	resp1, body1 := postSim(t, ts, plain)
	resp2, body2 := postSim(t, ts, checked)
	if resp1.StatusCode != http.StatusOK || resp2.StatusCode != http.StatusOK {
		t.Fatalf("status = %d / %d", resp1.StatusCode, resp2.StatusCode)
	}
	var r1, r2 SimResponse
	if err := json.Unmarshal(body1, &r1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body2, &r2); err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.Instructions != r2.Instructions {
		t.Fatalf("checker changed timing: %d/%d cycles, %d/%d instructions",
			r1.Cycles, r2.Cycles, r1.Instructions, r2.Instructions)
	}
	if r2.Stats.Checks.Total() != 0 {
		t.Fatalf("healthy model reported %d invariant violations", r2.Stats.Checks.Total())
	}
	if got := svc.Metrics().CheckViolations(); got != 0 {
		t.Fatalf("rfpsim_check_violations_total = %d, want 0", got)
	}
}
