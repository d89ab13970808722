package console

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"

	"rfpsim/internal/obs"
	"rfpsim/internal/service"
	"rfpsim/internal/sweep"
)

// job is one console submission. The daemon's result cache owns the body
// by content address; the console additionally remembers which jobs this
// UI submitted, in order, with outcome and serving tier.
type job struct {
	mu sync.Mutex
	// id is the run ID (X-Rfpsimd-Run-Id), minted at submission so every
	// log line of the job correlates with the console row.
	id string
	// workload is the resolved spec name ("spec06_mcf", "trace:1fd9…").
	workload string
	// key is the request's content address.
	key string
	req service.SimRequest

	state string // "running", "done" or "error"
	tier  string
	err   string
	body  []byte
	resp  *service.SimResponse
	done  chan struct{}
}

// JobView is the JSON shape of one job row.
type JobView struct {
	ID       string `json:"id"`
	Workload string `json:"workload"`
	Key      string `json:"key"`
	State    string `json:"state"`
	Tier     string `json:"tier,omitempty"`
	Error    string `json:"error,omitempty"`
	// IPC, Cycles and Instructions are filled once the job is done.
	IPC          float64 `json:"ipc,omitempty"`
	Cycles       uint64  `json:"cycles,omitempty"`
	Instructions uint64  `json:"instructions,omitempty"`
}

func (j *job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:       j.id,
		Workload: j.workload,
		Key:      j.key,
		State:    j.state,
		Tier:     j.tier,
		Error:    j.err,
	}
	if j.resp != nil {
		v.IPC = j.resp.IPC
		v.Cycles = j.resp.Cycles
		v.Instructions = j.resp.Instructions
	}
	return v
}

// handleJobs is POST /console/api/jobs (submit a service.SimRequest; the
// response carries the run ID to poll) and GET (the job log, newest
// first).
func (c *Console) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var req service.SimRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
			return
		}
		v, err := c.submit(req)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		writeJSON(w, v)
	case http.MethodGet:
		c.mu.Lock()
		views := make([]JobView, 0, len(c.order))
		for i := len(c.order) - 1; i >= 0; i-- {
			views = append(views, c.jobs[c.order[i]].view())
		}
		c.mu.Unlock()
		writeJSON(w, views)
	default:
		writeError(w, http.StatusMethodNotAllowed, "POST or GET only")
	}
}

// submit validates req eagerly (bad requests fail the POST, not a
// background goroutine) and runs it through the daemon's full tier walk
// under the "console" tenant, so console jobs queue fairly against API
// traffic and share every cache tier with it.
func (c *Console) submit(req service.SimRequest) (JobView, error) {
	rjob, key, err := service.ResolveJobWith(req, c.svc.Traces())
	if err != nil {
		return JobView{}, err
	}
	j := &job{
		id:       obs.NewRunID(),
		workload: rjob.Spec.Name,
		key:      key,
		req:      req,
		state:    "running",
		done:     make(chan struct{}),
	}
	c.mu.Lock()
	c.jobs[j.id] = j
	c.order = append(c.order, j.id)
	c.evictLocked()
	c.mu.Unlock()

	go func() {
		ctx := obs.WithLogger(obs.WithRunID(context.Background(), j.id), c.logger)
		res, err := c.svc.Do(ctx, j.req, "console")
		j.mu.Lock()
		defer j.mu.Unlock()
		defer close(j.done)
		if err != nil {
			j.state = "error"
			j.err = err.Error()
			return
		}
		var resp service.SimResponse
		if err := json.Unmarshal(res.Body, &resp); err != nil {
			j.state = "error"
			j.err = "undecodable result body: " + err.Error()
			return
		}
		j.state = "done"
		j.tier = res.Tier
		j.body = res.Body
		j.resp = &resp
	}()
	return j.view(), nil
}

// evictLocked drops the oldest finished jobs past the log bound. Running
// jobs are never dropped — their goroutines still need the entry.
func (c *Console) evictLocked() {
	for len(c.order) > c.maxJobs {
		dropped := false
		for i, id := range c.order {
			j := c.jobs[id]
			j.mu.Lock()
			running := j.state == "running"
			j.mu.Unlock()
			if running {
				continue
			}
			delete(c.jobs, id)
			c.order = append(c.order[:i], c.order[i+1:]...)
			dropped = true
			break
		}
		if !dropped {
			return
		}
	}
}

// handleJobByID serves /console/api/jobs/{id}[/csv|/result].
func (c *Console) handleJobByID(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/console/api/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	c.mu.Lock()
	j, ok := c.jobs[id]
	c.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job id")
		return
	}
	switch sub {
	case "":
		writeJSON(w, j.view())
	case "result":
		j.mu.Lock()
		body, state := j.body, j.state
		j.mu.Unlock()
		if state != "done" {
			writeError(w, http.StatusConflict, "job is "+state+", no result body yet")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	case "csv":
		j.mu.Lock()
		resp, state, workload := j.resp, j.state, j.workload
		j.mu.Unlock()
		if state != "done" {
			writeError(w, http.StatusConflict, "job is "+state+", no CSV yet")
			return
		}
		w.Header().Set("Content-Type", "text/csv")
		if err := sweep.WriteMetricsCSV(w, []sweep.MetricsRow{{Label: "console/" + workload, Resp: resp}}); err != nil {
			c.logger.Error("console csv write failed", "err", err.Error())
		}
	default:
		writeError(w, http.StatusNotFound, "unknown job subresource "+sub)
	}
}

// handleAggregateCSV renders every finished job, in submission order, in
// the exact schema sweep aggregates use — a console session's results
// paste straight into the same plotting pipeline as an rfpsweep CSV.
func (c *Console) handleAggregateCSV(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	var rows []sweep.MetricsRow
	c.mu.Lock()
	for _, id := range c.order {
		j := c.jobs[id]
		j.mu.Lock()
		if j.state == "done" {
			rows = append(rows, sweep.MetricsRow{Label: "console/" + j.workload, Resp: j.resp})
		}
		j.mu.Unlock()
	}
	c.mu.Unlock()
	w.Header().Set("Content-Type", "text/csv")
	if err := sweep.WriteMetricsCSV(w, rows); err != nil {
		c.logger.Error("console csv write failed", "err", err.Error())
	}
}
