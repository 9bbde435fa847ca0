package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"neurovec/internal/obs"
	"neurovec/internal/rl"
	"neurovec/internal/trainer"
)

// Training-job guardrails: a training iteration costs Batch simulated
// compilations, so the endpoint bounds everything a request can demand.
const (
	defaultTrainIterations = 10
	maxTrainIterationsCap  = 200
	defaultTrainBatch      = 100
	maxTrainBatch          = 2000
	// maxTrainJobsKept bounds the finished-job history; the oldest finished
	// jobs (and their checkpoints) are pruned beyond it.
	maxTrainJobsKept = 32
)

// TrainRequest is the POST /v1/train body. Every field is optional; the
// zero value trains a small generated-corpus agent.
type TrainRequest struct {
	// Corpus is the training-corpus spec shared with /v1/eval and
	// `neurovec train`: comma-separated suites polybench, mibench, figure7,
	// tsvc, generated (default "generated").
	Corpus string `json:"corpus,omitempty"`
	// N sizes the generated suite (default 16, capped like /v1/eval).
	N int `json:"n,omitempty"`
	// Seed fixes the run (default 1); two jobs with equal specs train
	// identical models.
	Seed int64 `json:"seed,omitempty"`
	// Jobs bounds rollout parallelism (capped at the worker-pool width;
	// never changes the trained weights).
	Jobs int `json:"jobs,omitempty"`
	// Iterations is the PPO iteration count (default 10, capped).
	Iterations int `json:"iterations,omitempty"`
	// Batch is the rollout size per iteration (default 100, capped).
	Batch int `json:"batch,omitempty"`
	// LR is the learning rate (default 5e-4).
	LR float64 `json:"lr,omitempty"`
	// CheckpointEvery writes intermediate checkpoints every N iterations
	// (0 = final only; the final checkpoint is always written).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// EvalEvery interleaves a learning-curve evaluation every N iterations
	// (0 = off); EvalCorpus overrides the corpus it scores on.
	EvalEvery  int    `json:"eval_every,omitempty"`
	EvalCorpus string `json:"eval_corpus,omitempty"`
}

// trainJob tracks one asynchronous training run. All mutable fields are
// guarded by mu; the training goroutine writes, handlers read.
type trainJob struct {
	mu         sync.Mutex
	id         string
	req        TrainRequest
	state      string // "running", "succeeded", "failed", "canceled"
	created    time.Time
	finished   time.Time
	total      int
	iterations int
	steps      int
	units      int
	rewardMean []float64
	loss       []float64
	curve      []trainer.EvalPoint
	checkpoint string
	version    string
	promoted   bool
	errMsg     string
	cancel     context.CancelFunc
}

// TrainStatusResponse is the GET /v1/train/{id} response body (and one
// element of the GET /v1/train listing).
type TrainStatusResponse struct {
	ID      string       `json:"id"`
	State   string       `json:"state"`
	Request TrainRequest `json:"request"`
	// CreatedAt / FinishedAt are RFC3339 timestamps.
	CreatedAt  string `json:"created_at"`
	FinishedAt string `json:"finished_at,omitempty"`
	// IterationsDone / IterationsTotal report progress; Steps counts
	// simulated compilations; Units is the number of training loops.
	IterationsDone  int `json:"iterations_done"`
	IterationsTotal int `json:"iterations_total"`
	Steps           int `json:"steps"`
	Units           int `json:"units,omitempty"`
	// RewardMean and Loss are the per-iteration training curves; Curve holds
	// the interleaved evaluation points when eval_every was set.
	RewardMean []float64           `json:"reward_mean,omitempty"`
	Loss       []float64           `json:"loss,omitempty"`
	Curve      []trainer.EvalPoint `json:"curve,omitempty"`
	// ModelVersion fingerprints the job's last checkpoint; Promoted reports
	// that the checkpoint has been swapped into serving.
	ModelVersion string `json:"model_version,omitempty"`
	Promoted     bool   `json:"promoted,omitempty"`
	Error        string `json:"error,omitempty"`
}

// status snapshots the job under its lock.
func (j *trainJob) status() *TrainStatusResponse {
	j.mu.Lock()
	defer j.mu.Unlock()
	resp := &TrainStatusResponse{
		ID:              j.id,
		State:           j.state,
		Request:         j.req,
		CreatedAt:       j.created.UTC().Format(time.RFC3339),
		IterationsDone:  j.iterations,
		IterationsTotal: j.total,
		Steps:           j.steps,
		Units:           j.units,
		RewardMean:      append([]float64(nil), j.rewardMean...),
		Loss:            append([]float64(nil), j.loss...),
		Curve:           append([]trainer.EvalPoint(nil), j.curve...),
		ModelVersion:    j.version,
		Promoted:        j.promoted,
		Error:           j.errMsg,
	}
	if !j.finished.IsZero() {
		resp.FinishedAt = j.finished.UTC().Format(time.RFC3339)
	}
	return resp
}

// validateTrainRequest applies defaults and caps.
func (s *Server) validateTrainRequest(req *TrainRequest) error {
	if req.Corpus == "" {
		req.Corpus = "generated"
	}
	if req.N <= 0 {
		req.N = 16
	}
	if req.N > maxEvalCorpus {
		return &httpError{status: http.StatusBadRequest,
			msg: fmt.Sprintf("n=%d exceeds the per-request corpus cap of %d", req.N, maxEvalCorpus)}
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	if req.Jobs <= 0 || req.Jobs > s.pool.Workers() {
		req.Jobs = s.pool.Workers()
	}
	if req.Iterations <= 0 {
		req.Iterations = defaultTrainIterations
	}
	if req.Iterations > maxTrainIterationsCap {
		return &httpError{status: http.StatusBadRequest,
			msg: fmt.Sprintf("iterations=%d exceeds the cap of %d", req.Iterations, maxTrainIterationsCap)}
	}
	if req.Batch <= 0 {
		req.Batch = defaultTrainBatch
	}
	if req.Batch > maxTrainBatch {
		return &httpError{status: http.StatusBadRequest,
			msg: fmt.Sprintf("batch=%d exceeds the cap of %d", req.Batch, maxTrainBatch)}
	}
	if req.LR <= 0 {
		req.LR = 5e-4
	}
	if req.CheckpointEvery < 0 || req.EvalEvery < 0 {
		return &httpError{status: http.StatusBadRequest, msg: "checkpoint_every and eval_every must be >= 0"}
	}
	return nil
}

// trainDirLocked lazily creates the checkpoint directory for training jobs.
// Callers hold trainMu.
func (s *Server) trainDirLocked() (string, error) {
	if s.trainDir != "" {
		return s.trainDir, nil
	}
	dir := s.cfg.TrainDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "neurovec-train-")
		if err != nil {
			return "", err
		}
		dir = tmp
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	s.trainDir = dir
	return dir, nil
}

// TrainStartResponse is the POST /v1/train response body.
type TrainStartResponse struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// handleTrainStart admits and launches one asynchronous training job.
// Training is far heavier than any inference request, so one job runs at a
// time; a second POST while one is running is a 409.
func (s *Server) handleTrainStart(w http.ResponseWriter, r *http.Request) {
	var req TrainRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, r, err)
		return
	}
	if err := s.validateTrainRequest(&req); err != nil {
		writeError(w, r, err)
		return
	}

	s.trainMu.Lock()
	if s.trainActive {
		s.trainMu.Unlock()
		writeError(w, r, &httpError{status: http.StatusConflict,
			msg: "a training job is already running; poll GET /v1/train and retry"})
		return
	}
	dir, err := s.trainDirLocked()
	if err != nil {
		s.trainMu.Unlock()
		writeError(w, r, err)
		return
	}
	s.trainSeq++
	var rnd [4]byte
	rand.Read(rnd[:])
	ctx, cancel := context.WithCancel(context.Background())
	job := &trainJob{
		id:      fmt.Sprintf("train-%04d-%s", s.trainSeq, hex.EncodeToString(rnd[:])),
		req:     req,
		state:   "running",
		created: time.Now(),
		total:   req.Iterations,
		cancel:  cancel,
	}
	job.checkpoint = filepath.Join(dir, job.id+".gob")
	s.trainActive = true
	s.trainJobs[job.id] = job
	s.pruneTrainJobsLocked()
	s.trainMu.Unlock()

	s.metrics.TrainJob("started")
	go s.runTrainJob(ctx, job)

	body, _ := json.Marshal(&TrainStartResponse{ID: job.id, State: job.state})
	writeJSON(w, http.StatusAccepted, body)
}

// pruneTrainJobsLocked drops the oldest finished jobs (and their
// checkpoints) beyond the history bound. Callers hold trainMu.
func (s *Server) pruneTrainJobsLocked() {
	if len(s.trainJobs) <= maxTrainJobsKept {
		return
	}
	ids := make([]string, 0, len(s.trainJobs))
	for id := range s.trainJobs {
		ids = append(ids, id)
	}
	sort.Strings(ids) // ids embed a monotonic sequence number
	for _, id := range ids {
		if len(s.trainJobs) <= maxTrainJobsKept {
			return
		}
		j := s.trainJobs[id]
		j.mu.Lock()
		finished, ckpt, promoted := j.state != "running", j.checkpoint, j.promoted
		j.mu.Unlock()
		if !finished {
			continue
		}
		delete(s.trainJobs, id)
		if ckpt != "" && !promoted {
			os.Remove(ckpt)
		}
	}
}

// runTrainJob executes one job to completion on its own goroutine. The
// cancelable ctx was created at admission time so a cancel request can never
// race job startup.
func (s *Server) runTrainJob(ctx context.Context, job *trainJob) {
	job.mu.Lock()
	req := job.req
	ckpt := job.checkpoint
	job.mu.Unlock()
	// Arm the job context with the metrics stage sink: the trainer's
	// rollout/update/checkpoint/eval spans land in the same
	// neurovec_stage_duration_seconds histogram the compile pipeline feeds.
	ctx = obs.WithRecorder(ctx, nil, s.metrics.StageSink())
	s.log.Info("training job started", "job_id", job.id, "corpus", req.Corpus,
		"iterations", req.Iterations, "batch", req.Batch, "seed", req.Seed)

	rc := rl.DefaultConfig(nil, nil)
	rc.Batch = req.Batch
	rc.MiniBatch = req.Batch / 4
	rc.LR = req.LR
	rc.Seed = req.Seed

	outcome := "failed"
	finalize := func(state, errMsg, version string) {
		job.mu.Lock()
		job.state = state
		job.errMsg = errMsg
		if version != "" {
			job.version = version
		}
		job.finished = time.Now()
		job.mu.Unlock()
		s.trainMu.Lock()
		s.trainActive = false
		s.trainMu.Unlock()
		s.metrics.TrainJob(outcome)
		s.log.Info("training job finished", "job_id", job.id, "state", state,
			"model_version", version, "error", errMsg)
	}

	tr, err := trainer.New(trainer.Config{
		Core:            s.cfg.Core,
		RL:              &rc,
		Corpus:          req.Corpus,
		GenN:            req.N,
		Seed:            req.Seed,
		Jobs:            req.Jobs,
		Iterations:      req.Iterations,
		CheckpointEvery: req.CheckpointEvery,
		CheckpointPath:  ckpt,
		EvalEvery:       req.EvalEvery,
		EvalCorpus:      req.EvalCorpus,
		Progress: func(p trainer.Progress) {
			s.metrics.TrainIterations(1)
			job.mu.Lock()
			job.iterations = p.Iteration
			job.steps = p.Steps
			job.rewardMean = append(job.rewardMean, p.RewardMean)
			job.loss = append(job.loss, p.Loss)
			if p.Eval != nil {
				job.curve = append(job.curve, *p.Eval)
			}
			job.mu.Unlock()
		},
	})
	if err != nil {
		finalize("failed", err.Error(), "")
		return
	}
	job.mu.Lock()
	job.units = tr.Framework().NumSamples()
	job.mu.Unlock()

	res, err := tr.Run(ctx)
	switch {
	case err == nil:
		outcome = "succeeded"
		finalize("succeeded", "", res.ModelVersion)
	case ctx.Err() != nil:
		outcome = "canceled"
		finalize("canceled", "canceled", res.ModelVersion)
	default:
		finalize("failed", err.Error(), "")
	}
}

// lookupTrainJob resolves the {id} path value.
func (s *Server) lookupTrainJob(r *http.Request) (*trainJob, error) {
	id := r.PathValue("id")
	s.trainMu.Lock()
	job := s.trainJobs[id]
	s.trainMu.Unlock()
	if job == nil {
		return nil, &httpError{status: http.StatusNotFound, msg: fmt.Sprintf("no training job %q", id)}
	}
	return job, nil
}

// handleTrainStatus reports one job's progress and learning curves.
func (s *Server) handleTrainStatus(w http.ResponseWriter, r *http.Request) {
	job, err := s.lookupTrainJob(r)
	if err != nil {
		writeError(w, r, err)
		return
	}
	body, _ := json.Marshal(job.status())
	writeJSON(w, http.StatusOK, body)
}

// TrainListResponse is the GET /v1/train response body.
type TrainListResponse struct {
	Jobs []*TrainStatusResponse `json:"jobs"`
}

// handleTrainList lists every known job, newest first.
func (s *Server) handleTrainList(w http.ResponseWriter, r *http.Request) {
	s.trainMu.Lock()
	jobs := make([]*trainJob, 0, len(s.trainJobs))
	for _, j := range s.trainJobs {
		jobs = append(jobs, j)
	}
	s.trainMu.Unlock()
	resp := &TrainListResponse{Jobs: make([]*TrainStatusResponse, 0, len(jobs))}
	for _, j := range jobs {
		resp.Jobs = append(resp.Jobs, j.status())
	}
	sort.Slice(resp.Jobs, func(i, k int) bool { return resp.Jobs[i].ID > resp.Jobs[k].ID })
	body, _ := json.Marshal(resp)
	writeJSON(w, http.StatusOK, body)
}

// handleTrainCancel stops a running job at its next iteration boundary.
func (s *Server) handleTrainCancel(w http.ResponseWriter, r *http.Request) {
	job, err := s.lookupTrainJob(r)
	if err != nil {
		writeError(w, r, err)
		return
	}
	job.mu.Lock()
	running := job.state == "running"
	cancel := job.cancel
	job.mu.Unlock()
	if !running || cancel == nil {
		writeError(w, r, &httpError{status: http.StatusConflict, msg: "job is not running"})
		return
	}
	cancel()
	body, _ := json.Marshal(map[string]string{"id": job.id, "state": "canceling"})
	writeJSON(w, http.StatusAccepted, body)
}

// handleTrainPromote hot-swaps a completed job's checkpoint into serving
// through the same reload path as POST /v1/reload: in-flight requests finish
// on the old snapshot, the response cache needs no flush (keys embed the
// version), and subsequent reloads re-read the promoted path.
func (s *Server) handleTrainPromote(w http.ResponseWriter, r *http.Request) {
	job, err := s.lookupTrainJob(r)
	if err != nil {
		writeError(w, r, err)
		return
	}
	// Mark the job promoted before releasing its lock: pruning skips
	// promoted jobs, so a concurrent POST /v1/train can never delete this
	// checkpoint while ReloadFrom is reading it.
	job.mu.Lock()
	state, ckpt := job.state, job.checkpoint
	if state == "succeeded" {
		job.promoted = true
	}
	job.mu.Unlock()
	if state != "succeeded" {
		writeError(w, r, &httpError{status: http.StatusConflict,
			msg: fmt.Sprintf("job is %s; only succeeded jobs can be promoted", state)})
		return
	}
	previous, current, err := s.ReloadFrom(ckpt)
	if err != nil {
		job.mu.Lock()
		job.promoted = false
		job.mu.Unlock()
		writeError(w, r, err)
		return
	}
	body, _ := json.Marshal(&ReloadResponse{PreviousVersion: previous, ModelVersion: current})
	writeJSON(w, http.StatusOK, body)
}
