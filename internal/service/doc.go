// Package service is the long-lived serving layer of the NeuroVectorizer
// reproduction: vectorization-as-a-service. Where the CLI re-parses and
// re-loads a model on every invocation, a Server loads one trained
// checkpoint (written by `neurovec train -out`) and serves inference over
// HTTP/JSON with a bounded worker pool, an LRU response cache, per-request policy selection, request deadlines,
// asynchronous training jobs, and atomic model hot-reload.
//
// # Architecture
//
//   - Every compute request runs on a worker pool sized by GOMAXPROCS with a
//     bounded queue; when the queue is full the server sheds load with 503
//     instead of building an unbounded backlog.
//   - Decisions come from pluggable policies (package
//     neurovec/internal/policy): rl (the trained agent, the default),
//     costmodel, brute, random, and nns, selected per request by the
//     "policy" field. GET /v1/policies lists them with availability.
//   - Responses are cached in an LRU keyed by endpoint, model version,
//     policy, source hash and runtime parameters. A repeated request is a
//     cache hit (observable via the X-Neurovec-Cache response header and
//     /metrics); bodies are byte-identical on hit and miss. Responses
//     truncated by a deadline are never cached.
//   - Config.RequestTimeout (and the request's own timeout_ms, which can
//     shorten but not extend it) bounds compute through the request context.
//     On /v2/compile, deadline-aware policies (brute) answer with their
//     best pair so far and "truncated": true; other policies fail with 504
//     when the deadline passes. /v1/sweep's grid walk aborts with 504 at
//     the deadline regardless of the overlay policy.
//   - The serving model is an immutable snapshot behind an atomic pointer.
//     Hot-reload (POST /v1/reload, or SIGHUP in the CLI) loads the
//     checkpoint into a fresh framework and swaps the pointer; in-flight
//     requests finish on the snapshot they started with, and version-keyed
//     caching makes stale entries unreachable. Inference itself uses
//     core.Framework's stateless paths (PredictLoops, SweepSource,
//     Compile/Decide), which only read the configuration and trained weights.
//   - Beneath the byte-level response cache sits one per-loop cache
//     (core.LoopLRU) keyed by (model version, stable LoopID): code vectors
//     for every learned policy, and (VF, IF) decisions for loop-pure ones.
//     LoopIDs survive whitespace and comment edits, so a reformatted file
//     skips the expensive per-loop work even when its bytes miss the
//     response cache. /v1/eval runs its harness over the same cache. Both
//     caches are core.Cache LRUs; a model without a checkpoint fingerprint
//     bypasses the per-loop one.
//
// # HTTP API
//
// POST /v2/compile — run a decision policy on a C program: one
// api.Decision per innermost loop with a stable loop_id and provenance,
// per-loop pins, a JSON batch envelope ({"requests": […]}), and NDJSON
// streaming (Content-Type: application/x-ndjson, one request per line, one
// response line back per request in order). Full schema: docs/API.md and
// package neurovec/internal/api.
//
// Request:
//
//	{"source": "float a[4096]; float b[4096]; void f(int n) { for (int i = 0; i < n; i++) a[i] += b[i]; }",
//	 "params": {"n": 4096},        // optional runtime values for symbolic bounds
//	 "policy": "brute",            // optional; default "rl" (see GET /v1/policies)
//	 "timeout_ms": 250}            // optional per-request deadline
//
// Response 200:
//
//	{"version": 2, "model_version": "8c6a…",
//	 "policy": "brute",
//	 "truncated": true,            // only when a deadline cut the search short
//	 "annotated": "…source with #pragma clang loop vectorize_width(…) interleave_count(…)…",
//	 "loops": [{"loop_id": "8c1f03ba90d2ee41", "label": "L0", "func": "f",
//	            "vf": 8, "if": 2, "cycles": 1234.5, "predicted_speedup": 1.8,
//	            "provenance": {"origin": "policy", "policy": "brute",
//	                           "model_version": "8c6a…", "truncated": true}}],
//	 "baseline_cycles": 2222.1,    // program cycles under the baseline cost model
//	 "predicted_cycles": 1234.5,   // program cycles with every decision applied
//	 "speedup": 1.8}
//
// POST /v1/sweep — measure the full VF x IF grid for the first innermost
// loop (speedups are relative to the baseline cost model). An optional
// "policy" marks the cell that method would pick.
//
// Request:
//
//	{"source": "…", "params": {…}, "policy": "costmodel"}
//
// Response:
//
//	{"model_version": "8c6a…", "loop": "L0", "vfs": [1,2,…], "ifs": [1,2,…],
//	 "baseline_cycles": 2222.1, "speedup": [[1.0, …], …],
//	 "policy": "costmodel", "chosen_vf": 4, "chosen_if": 2}
//
// # Evaluating policies
//
// GET/POST /v1/eval — evaluate a policy over a whole built-in corpus, the
// service-side twin of `neurovec eval`. Every file runs through the policy
// under evaluation, a baseline (default "costmodel"), and the brute-force
// oracle; the response aggregates per-suite and overall mean/geomean
// speedup, oracle regret (policy cycles over oracle cycles minus one), and
// decision agreement. Numbers are a pure function of (model version,
// request spec): the report's files and suites are canonically sorted and
// the volatile timing block is omitted, so repeated identical specs return
// identical bytes (usually straight from the response cache) and match the
// CLI's `neurovec eval` output at the same seed.
//
// POST body (GET takes the same fields as query parameters):
//
//	{"policy": "rl",               // default "rl"
//	 "baseline": "costmodel",      // default "costmodel"
//	 "corpus": "polybench,mibench",// suites: polybench, mibench, figure7, tsvc, generated
//	 "n": 32,                      // generated-suite size (default 16, cap 256)
//	 "seed": 1,                    // corpus + stochastic-policy seed
//	 "jobs": 4,                    // parallelism cap (never changes the numbers)
//	 "timeout_ms": 250}            // per-inference budget inside the evaluation
//
// Response 200:
//
//	{"model_version": "8c6a…",
//	 "report": {
//	   "spec":    {"policy": "rl", "baseline": "costmodel", "oracle": "brute",
//	               "seed": 1, "suites": ["mibench", "polybench"], "files": 12, …},
//	   "overall": {"files": 12, "loops": 14, "mean_speedup": 1.32,
//	               "geomean_speedup": 1.28, "mean_oracle_speedup": 1.41,
//	               "mean_regret": 0.07, "agreement": 0.64},
//	   "suites":  [{"suite": "mibench", …}, {"suite": "polybench", …}],
//	   "files":   [{"suite": "mibench", "name": "crc32", "loops": 1,
//	                "baseline_cycles": 9041, "policy_cycles": 8120,
//	                "oracle_cycles": 8101, "speedup": 1.11,
//	                "oracle_speedup": 1.12, "regret": 0.002,
//	                "agreed_loops": 0}, …]}}
//
// Example:
//
//	curl 'localhost:8080/v1/eval?policy=rl&corpus=polybench&seed=1'
//	curl -d '{"policy": "rl", "corpus": "generated", "n": 32}' localhost:8080/v1/eval
//
// Evaluations are counted at /metrics as
// neurovec_eval_runs_total{policy="…",outcome="…"} and
// neurovec_eval_files_total{suite="…"}. Learned-policy embeddings are
// memoized across eval runs (keyed by model version + source hash), so
// repeated corpus evaluations — the regression-gate workload — are fast.
//
// # Training jobs
//
// POST /v1/train — start an asynchronous training job on the parallel
// pipeline (package neurovec/internal/trainer). The call returns
// immediately with a job id; one job runs at a time (a concurrent POST is a
// 409). Training runs on its own framework, so serving latency is
// unaffected apart from CPU contention.
//
// Request (all fields optional):
//
//	{"corpus": "generated",        // suites: polybench, mibench, figure7, tsvc, generated
//	 "n": 16,                      // generated-suite size (cap 256)
//	 "seed": 1,                    // fixes the run: equal specs train equal models
//	 "jobs": 4,                    // rollout parallelism (never changes the weights)
//	 "iterations": 10,             // PPO iterations (cap 200)
//	 "batch": 100,                 // rollouts per iteration (cap 2000)
//	 "lr": 0.0005,
//	 "checkpoint_every": 5,        // intermediate checkpoints (final always written)
//	 "eval_every": 5,              // interleaved learning-curve evaluation
//	 "eval_corpus": "figure7"}     // corpus it scores on (default: corpus)
//
// Response 202: {"id": "train-0001-ab12cd34", "state": "running"}
//
// GET /v1/train/{id} — progress, training curves (reward_mean, loss per
// iteration), and the interleaved learning curve (mean/geomean speedup over
// the baseline, oracle regret, decision agreement per eval point):
//
//	{"id": "train-0001-ab12cd34", "state": "succeeded",
//	 "request": {…}, "created_at": "…", "finished_at": "…",
//	 "iterations_done": 10, "iterations_total": 10, "steps": 1000,
//	 "units": 18, "reward_mean": [0.01, …], "loss": [0.82, …],
//	 "curve": [{"iteration": 5, "steps": 500, "mean_speedup": 1.21,
//	            "geomean_speedup": 1.18, "mean_regret": 0.09,
//	            "agreement": 0.55, …}, …],
//	 "model_version": "b01f…"}
//
// GET /v1/train lists every known job (newest first);
// POST /v1/train/{id}/cancel stops a running job at its next iteration
// boundary (state becomes "canceled").
//
// POST /v1/train/{id}/promote — hot-swap a succeeded job's checkpoint into
// serving through the same reload path as POST /v1/reload: no restart,
// in-flight requests finish on the old snapshot, and subsequent reloads
// re-read the promoted checkpoint.
//
// Response: {"previous_version": "8c6a…", "model_version": "b01f…"}
//
// Job checkpoints are written under Config.TrainDir (`serve -train-dir`; a
// temporary directory by default). Jobs are counted at /metrics as
// neurovec_train_jobs_total{outcome="started|succeeded|failed|canceled"}
// and neurovec_train_iterations_total.
//
// GET /v1/policies — discover the registered decision policies and whether
// this serving snapshot can run them.
//
// Response:
//
//	{"default": "rl", "model_version": "8c6a…",
//	 "policies": [{"name": "brute", "available": true},
//	              {"name": "nns", "available": false,
//	               "reason": "policy nns: … no loaded units to index …"}, …]}
//
// POST /v1/reload — re-read the checkpoint path and swap it in atomically.
//
// Response: {"previous_version": "8c6a…", "model_version": "b01f…"}
//
// GET /healthz — liveness plus the serving snapshot's identity.
//
// Response:
//
//	{"status": "ok", "model_version": "8c6a…", "model_path": "m.gob",
//	 "model_loaded_at": "2026-07-27T12:00:00Z", "uptime_seconds": 42.0,
//	 "workers": 8, "cache_entries": 17}
//
// GET /metrics — Prometheus text format: neurovec_requests_total,
// neurovec_request_duration_seconds histogram,
// neurovec_policy_requests_total{policy="…",outcome="…"},
// neurovec_cache_hits_total / neurovec_cache_misses_total /
// neurovec_cache_hit_ratio, neurovec_model_reloads_total,
// neurovec_pool_rejected_total,
// neurovec_model_info{version="…"}.
//
// Errors are JSON ({"error": "…"}): 400 for malformed requests, unknown
// policy names, unsupported schema versions, or bad pins (a pin naming a
// loop the program does not contain, or off-action-space factors), 409 for
// policies this serving state cannot run (no trained agent, no corpus for
// the NNS index), 422 for programs that do not parse or contain no loops,
// 503 when the work queue is full, 504 when the request deadline expires on
// a policy that cannot answer early, 500 otherwise. Batched /v2/compile
// files report failures per response (the "error" field) instead of failing
// the batch.
//
// # Example
//
//	neurovec train -corpus generated -n 1000 -iters 30 -jobs 8 -out model.gob
//	neurovec serve -model model.gob -addr :8080 -timeout 30s &
//	curl -s localhost:8080/v1/policies
//	curl -s localhost:8080/v2/compile \
//	     -d '{"source":"float a[1024]; void f() { for (int i = 0; i < 1024; i++) a[i] = a[i] * 2; }"}'
//	curl -s localhost:8080/v2/compile \
//	     -d '{"source":"…", "policy":"brute", "timeout_ms": 100}'
//	curl -s localhost:8080/metrics | grep policy
//	curl -s -d '{"corpus":"generated","n":64,"iterations":20,"eval_every":5}' \
//	     localhost:8080/v1/train                              # retrain in-service…
//	curl -s localhost:8080/v1/train/train-0001-ab12cd34       # …watch the curves…
//	curl -s -X POST localhost:8080/v1/train/train-0001-ab12cd34/promote   # …swap it in
package service
