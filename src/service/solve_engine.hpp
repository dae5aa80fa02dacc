// SolveEngine — concurrent multi-RHS solve throughput service.
//
// The execution layer the ROADMAP's "heavy traffic" north star asks for:
// the engine owns the one pool of worker threads, which share one
// FactorizationCache, so repeated graphs factor once and then serve many
// solves concurrently through the const, thread-safe
// AnySolver::solve_panel surface. Callers are sessions of the pool: a
// batch of SolveJobs (job_file.hpp) is one, and each parlap_serve client
// is one. Workers take sessions round-robin, ONE task per turn, so a
// session that queues 500 tasks shares them with one that queues one.
//
// Every job runs as a panel task (run_panel_task): one graph load, one
// cache lookup, and one AnySolver::solve_panel call. A run_one() request
// is a width-1 panel task, and so is every batch job at block_width 1.
// Panel grouping (EngineOptions::block_width > 1): jobs that share a
// factorization (graph content, method, config, eps) are grouped — in
// input order, before any worker runs — into panels of up to
// block_width right-hand sides, so the paper's solver traverses its chain
// once per preconditioner application for the whole panel. Per-job
// results are bit-identical at every block width (the solve_panel
// contract); a panel's jobs share one cache lookup, so hit/miss
// counters count panels.
//
// Determinism contract: every job's result — solution bits, residual,
// iteration count — is a pure function of the job itself (its id, seed,
// graph, method, knobs). It does not depend on the worker count, on
// which worker picks the job up, or on completion order. This holds
// because (a) factorizations are pure functions of (graph content,
// method, config), (b) AnySolver::solve_panel is deterministic across
// thread counts and panel widths, and (c) each job's right-hand side comes from a Philox stream
// keyed by (seed, job id) rather than any shared counter. Tests compare
// --workers 1 against --workers N for bit-identical results.
//
// Oversubscription: with workers > 1 each pool thread pins its OpenMP
// thread count to 1 and enters a SerialScope when it starts, so a machine
// runs `workers` single-threaded solves side by side instead of
// workers * max_threads oversubscribed ones, even for a batch of fewer
// tasks. With workers == 1 the one pool thread keeps inner OpenMP
// parallelism (latency mode vs throughput mode). libgomp gives each pool
// thread the process default thread count (OMP_NUM_THREADS, else one per
// core), not the count the engine's creator set with
// omp_set_num_threads().
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <stop_token>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/run_report.hpp"
#include "graph/connectivity.hpp"
#include "graph/multigraph.hpp"
#include "linalg/vector_ops.hpp"
#include "service/factorization_cache.hpp"
#include "service/job_file.hpp"
#include "support/precision.hpp"

namespace parlap::service {

/// Outcome of one job. `ok` distinguishes "ran" from "failed to run"
/// (bad graph spec, unknown method, incompatible rhs, ...); a job that
/// ran but missed its eps still has ok == true with converged == false
/// in the report.
struct JobResult {
  std::string id;
  bool ok = false;
  std::string error;        ///< set when !ok
  bool cache_hit = false;   ///< factorization came from the cache
  RunReport report;         ///< zero-initialized when !ok
  double wall_seconds = 0;  ///< load + factor-or-hit + solve, this job
  /// Time spent obtaining the factorization (cold build, single-flight
  /// wait, or cache lookup) — the serve daemon's per-request "build_ms".
  double build_seconds = 0;
  /// Order-independent fingerprint of the solution bits (fingerprint_mix
  /// chain); lets callers assert bit-identical results across worker
  /// counts without shipping the vectors.
  std::uint64_t solution_hash = 0;
  Vector solution;  ///< kept only under EngineOptions::keep_solutions

  /// solution_hash as 16 lowercase hex digits, the form batch and serve
  /// output carry (a JSON number would lose bits past 2^53).
  [[nodiscard]] std::string solution_hash_hex() const;
};

struct EngineOptions {
  int workers = 1;                 ///< pool threads (>= 1)
  EdgeId cache_budget_entries = 0; ///< FactorizationCache budget; 0 = off
  bool keep_solutions = false;     ///< retain JobResult::solution
  /// Loaded graphs retained for reuse (LRU beyond this; 0 = unlimited).
  /// Bounds the engine's second cache so a long-lived engine seeing a
  /// rotating graph set cannot grow without limit.
  std::size_t graph_cache_limit = 32;
  /// Panel width: jobs sharing a factorization (same graph content,
  /// method, config knobs, and eps) are grouped, in input order, into
  /// panels of at most this many right-hand sides, each panel solved
  /// with one AnySolver::solve_panel call. 1 (the default) solves every
  /// job individually. Per-job solutions are bit-identical at every
  /// width; cache hit/miss counters count panels, not jobs.
  int block_width = 1;
  /// Default factorization storage precision for jobs that do not set
  /// their own. kAuto is resolved per graph (resolve_precision) before
  /// the factorization cache key is formed, so fp32 and fp64
  /// factorizations of the same graph never collide and an auto job
  /// shares the entry of the mode it resolves to. fp64 results are
  /// bit-identical to a build without the knob; fp32 meets each job's
  /// eps via fp64 refinement.
  Precision precision = Precision::kFp64;
};

/// Telemetry of one solved panel (every task is recorded, width-1
/// singletons included, so occupancy reads directly from the list).
struct PanelStats {
  std::vector<std::string> job_ids;  ///< input order
  int width = 0;                     ///< jobs grouped into this panel
  /// This panel's own cache lookup (hits 1 when the factorization came
  /// from the cache; resident_* unset). A panel whose jobs all failed
  /// before the lookup leaves it all zero.
  FactorizationCache::Stats cache;
  double solve_seconds = 0.0;        ///< summed per-RHS solve seconds
  double apply_seconds = 0.0;        ///< summed per-RHS apply seconds
  /// Queue wait: batch start -> a worker picking this task up. With
  /// more tasks than workers this is the backlog signal the ROADMAP's
  /// serve daemon will export as queue depth/latency.
  double queue_seconds = 0.0;
  double exec_seconds = 0.0;  ///< wall time inside the task
};

/// Aggregate batch telemetry.
struct EngineStats {
  std::int64_t jobs = 0;
  std::int64_t succeeded = 0;  ///< ok
  std::int64_t converged = 0;  ///< ok && report.converged
  std::int64_t failed = 0;     ///< !ok
  double wall_seconds = 0.0;       ///< whole batch
  double solves_per_second = 0.0;  ///< succeeded / wall_seconds
  /// Latency percentiles, derived from obs::LatencyHistogram buckets
  /// (log-bucketed: monotone in q, <= 12.5% above the exact order
  /// statistic) rather than a sort — the same digest the registry
  /// exports, so batch JSON and live metrics agree by construction.
  double p50_solve_seconds = 0.0;  ///< per-job solve_seconds percentiles
  double p95_solve_seconds = 0.0;
  double p99_solve_seconds = 0.0;
  double p50_queue_seconds = 0.0;  ///< per-task queue-wait percentiles
  double p95_queue_seconds = 0.0;
  double p99_queue_seconds = 0.0;
  /// Panel-level hit fraction of THIS batch: cache.hits / lookups()
  /// (0 when the batch performed no lookups).
  double cache_hit_rate = 0.0;
  std::int64_t panels = 0;         ///< solve tasks (width-1 included)
  /// Mean panel fill: jobs / (panels * block_width). 1.0 when every
  /// panel is full (always, at block_width 1).
  double panel_occupancy = 0.0;
  /// Cache activity of THIS batch: the counters sum its own panels'
  /// lookups, so batches running at once on one engine never count each
  /// other's, and resident_* are absolute at batch end. A warmed
  /// engine's steady-state hit rate and factorization cost read
  /// directly from one run.
  FactorizationCache::Stats cache;
};

struct BatchResult {
  std::vector<JobResult> jobs;  ///< same order as the input batch
  std::vector<PanelStats> panels;  ///< per solved panel, task order
  EngineStats stats;
};

class SolveEngine {
 public:
  /// Starts the pool's EngineOptions::workers threads. `on_task_done`,
  /// if set, runs on the pool thread after each task has finished and
  /// left the queue counts (parlap_serve wakes its I/O loop with it).
  explicit SolveEngine(EngineOptions options = {},
                       std::function<void()> on_task_done = {});
  /// Finishes the tasks that are running, drops the queued ones, and
  /// joins the pool; each pool thread joins its OpenMP team threads first.
  ~SolveEngine();

  SolveEngine(const SolveEngine&) = delete;
  SolveEngine& operator=(const SolveEngine&) = delete;

  /// Runs the batch to completion (blocking) as one session of the pool:
  /// its panel tasks are queued in input order and run() waits for them.
  /// May be called repeatedly, and from several threads at once; the
  /// factorization cache persists across batches. Never call it from a
  /// pool task.
  [[nodiscard]] BatchResult run(std::span<const SolveJob> jobs);

  /// Runs ONE job synchronously on the calling thread as a width-1 panel
  /// task — the body of each parlap_serve request task. Safe from any
  /// number of threads concurrently: graph loads and factorizations
  /// share the engine's caches (with single-flight builds), and the
  /// result is the same pure function of the job as in a batch run (the
  /// same code path), so serve and batch traffic for the same job yield
  /// bit-identical results. Never throws: failures come back as
  /// JobResult::ok == false. Inner OpenMP parallelism is whatever the
  /// calling thread has configured.
  [[nodiscard]] JobResult run_one(const SolveJob& job);

  // --- the worker pool -----------------------------------------------------

  /// Pool counts. `cost` sums the cost of queued and running tasks.
  struct QueueStats {
    std::size_t queued = 0;
    std::size_t in_flight = 0;
    std::size_t cost = 0;
  };

  /// A session id no other caller of this engine has been given.
  [[nodiscard]] std::uint64_t open_session();
  /// Appends `task` to `session`'s FIFO; a pool thread runs it. `cost`
  /// counts in QueueStats::cost until the task has finished. Tasks must
  /// not throw: an exception escaping one ends the program.
  void submit(std::uint64_t session, std::function<void()> task,
              std::size_t cost = 0);
  /// Drops `session`'s queued tasks without running them and returns how
  /// many there were; a task of it that is already running finishes.
  std::size_t cancel(std::uint64_t session);
  /// Blocks until `session` has no task queued or running.
  void wait(std::uint64_t session);
  [[nodiscard]] QueueStats queue_stats() const;

  [[nodiscard]] FactorizationCache::Stats cache_stats() const {
    return cache_.stats();
  }

 private:
  struct Task {
    std::function<void()> run;
    std::size_t cost = 0;
  };
  /// A session with tasks queued or running (absent otherwise).
  struct Session {
    std::deque<Task> queue;
    std::size_t running = 0;
  };

  void worker_main(const std::stop_token& stop);

  struct LoadedGraph {
    std::shared_ptr<const Multigraph> graph;
    std::uint64_t fingerprint = 0;
    Components components;
    std::uint64_t last_use = 0;  ///< LRU tick, under graphs_mutex_
  };

  /// Loads/generates (and memoizes) the graph a job names.
  [[nodiscard]] std::shared_ptr<const LoadedGraph> graph_for(
      const SolveJob& job);

  /// The job's requested precision mode (its own field, else the
  /// engine default), before per-graph kAuto resolution.
  [[nodiscard]] Precision job_precision(const SolveJob& job) const;

  /// Runs one panel task, the only way a job is solved: shared graph +
  /// factorization lookup, one solve_panel call for the rhs-compatible
  /// jobs, per-job failure isolation for the rest. Writes results[i] for
  /// every i in `members` and returns the panel telemetry.
  [[nodiscard]] PanelStats run_panel_task(std::span<const SolveJob> jobs,
                                          std::span<const std::size_t> members,
                                          std::span<JobResult> results);

  EngineOptions options_;
  FactorizationCache cache_;
  std::mutex graphs_mutex_;
  std::uint64_t graphs_tick_ = 0;
  /// Keyed by (graph spec, weights, laplacian, seed) — the inputs that
  /// determine the loaded content (seed is dropped for plain file
  /// sources, whose content it cannot affect). LRU-bounded by
  /// EngineOptions::graph_cache_limit; evicted graphs stay alive for
  /// jobs still holding the shared_ptr.
  std::unordered_map<std::string, std::shared_ptr<LoadedGraph>> graphs_;

  /// Pool state, under pool_mutex_: the sessions with work, and those
  /// with tasks queued in the order of their next turn.
  mutable std::mutex pool_mutex_;
  std::condition_variable_any work_cv_;  ///< a task was queued
  std::condition_variable done_cv_;  ///< a task finished or was dropped
  std::unordered_map<std::uint64_t, Session> sessions_;
  std::deque<std::uint64_t> turns_;
  QueueStats counts_;
  std::uint64_t last_session_ = 0;
  std::function<void()> on_task_done_;
  /// Declared last: destroying it joins the workers before the state
  /// above goes away.
  std::vector<std::jthread> workers_;
};

/// The per-job right-hand side (exposed for tests): "random[:k]" uses a
/// Philox stream keyed by (seed, job id, k); "demand:S,T" is e_S - e_T.
[[nodiscard]] Vector job_rhs(const SolveJob& job, Vertex n);

}  // namespace parlap::service
