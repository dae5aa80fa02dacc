#include "service/solve_engine.hpp"

#include <omp.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>

#include "api/graph_source.hpp"
#include "api/rhs.hpp"
#include "api/solver_registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/for_each.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

namespace parlap::service {

namespace {

/// Process-wide engine metrics (cumulative across batches and engine
/// instances; per-batch EngineStats carry the per-run view). Resolved
/// once so workers never touch the registry map.
struct EngineMetrics {
  obs::Counter& jobs;
  obs::Counter& panels;
  obs::LatencyHistogram& solve_seconds;
  obs::LatencyHistogram& queue_seconds;
  obs::LatencyHistogram& task_seconds;

  static EngineMetrics& get() {
    static EngineMetrics* m = [] {
      auto& reg = obs::MetricsRegistry::global();
      return new EngineMetrics{
          reg.counter("parlap.engine.jobs"),
          reg.counter("parlap.engine.panels"),
          reg.histogram("parlap.engine.solve_seconds"),
          reg.histogram("parlap.engine.queue_wait_seconds"),
          reg.histogram("parlap.engine.task_seconds")};
    }();
    return *m;
  }
};

/// Stable 64-bit hash of a string via the shared fingerprint mixer.
std::uint64_t hash_string(const std::string& s) {
  return fingerprint_mix_string(0x6A6F6269'64686173ull, s);
}

std::uint64_t hash_solution(std::span<const double> x) {
  std::uint64_t h = 0x736F6C75'74696F6Eull;
  h = fingerprint_mix(h, static_cast<std::uint64_t>(x.size()));
  for (const double v : x) {
    h = fingerprint_mix(h, std::bit_cast<std::uint64_t>(v));
  }
  return h;
}

constexpr const char* kFilePrefix = "file:";

bool is_file_source(const std::string& graph) {
  return graph.rfind(kFilePrefix, 0) == 0;
}

/// Panel group identity: everything that must agree for two jobs to
/// share one solve_panel call — the loaded graph content, the
/// factorization key fields, and eps (solve_panel takes a single eps).
/// Doubles are keyed by their bits so "same knob" means bit-equality,
/// exactly like FactorizationKey's operator==. Unlike graph_for's cache
/// key, the seed always matters here: it feeds the factorization
/// regardless of whether the graph load consumed it.
std::string panel_group_key(const SolveJob& job) {
  std::string key = job.graph;
  key += '\x1f';
  key += job.weights;
  key += '\x1f';
  key += job.laplacian ? 'L' : 'A';
  key += '\x1f';
  key += job.method;
  key += '\x1f';
  key += std::to_string(job.seed);
  key += '\x1f';
  key += std::to_string(std::bit_cast<std::uint64_t>(job.split_scale));
  key += '\x1f';
  key += std::to_string(job.max_iterations);
  key += '\x1f';
  // The spelled mode, not the resolved one (resolution needs the loaded
  // graph): jobs inheriting the engine default share "", and an "auto"
  // job conservatively never shares a panel with an explicit one even
  // when both resolve to the same storage (they still share the
  // factorization cache entry).
  key += job.precision;
  key += '\x1f';
  key += std::to_string(std::bit_cast<std::uint64_t>(job.eps));
  return key;
}

}  // namespace

Vector job_rhs(const SolveJob& job, Vertex n) {
  const std::string& spec = job.rhs;
  if (spec.rfind("random", 0) == 0) {
    std::uint64_t k = 0;
    if (spec.size() > 6) {
      if (spec[6] != ':') {
        throw std::invalid_argument("job '" + job.id + "': bad rhs spec '" +
                                    spec + "' (want random[:k])");
      }
      // All-digits check first: strtoull would silently skip whitespace
      // and wrap a minus sign to a huge index.
      const std::string tail = spec.substr(7);
      const bool digits =
          !tail.empty() &&
          tail.find_first_not_of("0123456789") == std::string::npos;
      char* end = nullptr;
      if (digits) k = std::strtoull(tail.c_str(), &end, 10);
      if (!digits || end == nullptr || *end != '\0') {
        throw std::invalid_argument("job '" + job.id + "': bad rhs index '" +
                                    tail + "'");
      }
    }
    // Stream keyed by (seed, job id, k): independent of every other job
    // and of scheduling, which is what makes batches replayable.
    const std::uint64_t stream =
        splitmix64(job.seed ^ fingerprint_mix(hash_string(job.id), k));
    return random_rhs(n, stream);
  }
  if (spec.rfind("demand:", 0) == 0) {
    const std::string tail = spec.substr(7);
    const std::size_t comma = tail.find(',');
    if (comma == std::string::npos) {
      throw std::invalid_argument("job '" + job.id +
                                  "': rhs demand wants S,T");
    }
    std::int64_t s = 0;
    std::int64_t t = 0;
    try {
      std::size_t used_s = 0;
      std::size_t used_t = 0;
      s = std::stoll(tail.substr(0, comma), &used_s);
      t = std::stoll(tail.substr(comma + 1), &used_t);
      if (used_s != comma || used_t != tail.size() - comma - 1) {
        throw std::invalid_argument(tail);
      }
    } catch (const std::exception&) {
      throw std::invalid_argument("job '" + job.id + "': rhs '" + spec +
                                  "' is not a vertex pair demand:S,T");
    }
    if (s < 0 || s >= n || t < 0 || t >= n || s == t) {
      throw std::invalid_argument(
          "job '" + job.id + "': demand endpoints (" + std::to_string(s) +
          ", " + std::to_string(t) + ") invalid for " + std::to_string(n) +
          " vertices");
    }
    return demand_rhs(n, static_cast<Vertex>(s), static_cast<Vertex>(t));
  }
  throw std::invalid_argument("job '" + job.id + "': unknown rhs spec '" +
                              spec + "' (want random[:k] or demand:S,T)");
}

std::string JobResult::solution_hash_hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(solution_hash));
  return buf;
}

SolveEngine::SolveEngine(EngineOptions options,
                         std::function<void()> on_task_done)
    : options_(options),
      cache_(options.cache_budget_entries),
      on_task_done_(std::move(on_task_done)) {
  PARLAP_CHECK_MSG(options_.workers >= 1,
                   "SolveEngine needs at least one worker, got "
                       << options_.workers);
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int w = 0; w < options_.workers; ++w) {
    workers_.emplace_back([this](std::stop_token stop) { worker_main(stop); });
  }
}

SolveEngine::~SolveEngine() {
  // Stop them all before workers_ joins them one by one, so no worker
  // starts a queued task while another is being joined.
  for (std::jthread& t : workers_) t.request_stop();
}

void SolveEngine::worker_main(const std::stop_token& stop) {
  // Throughput mode: each worker runs its solves single-threaded so N
  // workers use N threads total (see header). SerialScope covers the
  // parallel_for wrappers; the OpenMP ICV covers raw pragmas, and both
  // die with this thread.
  std::optional<SerialScope> serial;
  if (options_.workers > 1) {
    omp_set_num_threads(1);
    serial.emplace();
  }
  while (true) {
    Task task;
    std::uint64_t id = 0;
    {
      std::unique_lock lock(pool_mutex_);
      work_cv_.wait(lock, stop, [&] { return !turns_.empty(); });
      if (stop.stop_requested()) break;
      // Round-robin: take ONE task from the session whose turn it is,
      // then send the session to the back if it still has tasks queued.
      id = turns_.front();
      turns_.pop_front();
      Session& session = sessions_.at(id);
      task = std::move(session.queue.front());
      session.queue.pop_front();
      if (!session.queue.empty()) turns_.push_back(id);
      ++session.running;
      --counts_.queued;
      ++counts_.in_flight;
    }
    task.run();
    {
      const std::scoped_lock lock(pool_mutex_);
      --counts_.in_flight;
      counts_.cost -= task.cost;
      // A session with a task running is never erased by anyone else.
      const auto it = sessions_.find(id);
      if (--it->second.running == 0 && it->second.queue.empty()) {
        sessions_.erase(it);
      }
    }
    done_cv_.notify_all();
    if (on_task_done_) on_task_done_();
  }
#if defined(__GNUC__) && !defined(__clang__)
  // libgomp gives each thread that opens a parallel region team threads
  // of its own, which would exit on their own after this thread; glibc
  // gives a new thread the heap arena of the thread that exited last.
  // Joining the team here makes that arena this worker's, so the next
  // engine's worker reuses the memory its chains freed instead of, by
  // timing, taking a team thread's small arena and leaving that resident.
  omp_pause_resource_all(omp_pause_hard);
#endif
}

std::uint64_t SolveEngine::open_session() {
  const std::scoped_lock lock(pool_mutex_);
  return ++last_session_;
}

void SolveEngine::submit(std::uint64_t session, std::function<void()> task,
                         std::size_t cost) {
  {
    const std::scoped_lock lock(pool_mutex_);
    Session& s = sessions_[session];
    if (s.queue.empty()) turns_.push_back(session);
    s.queue.push_back(Task{std::move(task), cost});
    ++counts_.queued;
    counts_.cost += cost;
  }
  work_cv_.notify_one();
}

std::size_t SolveEngine::cancel(std::uint64_t session) {
  std::size_t dropped = 0;
  {
    const std::scoped_lock lock(pool_mutex_);
    const auto it = sessions_.find(session);
    if (it == sessions_.end()) return 0;
    dropped = it->second.queue.size();
    for (const Task& t : it->second.queue) counts_.cost -= t.cost;
    counts_.queued -= dropped;
    std::erase(turns_, session);
    if (it->second.running == 0) {
      sessions_.erase(it);
    } else {
      it->second.queue.clear();
    }
  }
  done_cv_.notify_all();
  return dropped;
}

void SolveEngine::wait(std::uint64_t session) {
  std::unique_lock lock(pool_mutex_);
  done_cv_.wait(lock, [&] { return !sessions_.contains(session); });
}

SolveEngine::QueueStats SolveEngine::queue_stats() const {
  const std::scoped_lock lock(pool_mutex_);
  return counts_;
}

std::shared_ptr<const SolveEngine::LoadedGraph> SolveEngine::graph_for(
    const SolveJob& job) {
  // Key by everything that determines the loaded content ('\x1f', the
  // unit separator, cannot appear in the specs). The seed only matters
  // when something is generated from it — a plain file load is
  // seed-independent and shared across differently-seeded jobs.
  const bool seed_matters = !is_file_source(job.graph) || !job.weights.empty();
  const std::string key =
      job.graph + '\x1f' + job.weights + '\x1f' +
      (job.laplacian ? "L" : "A") + '\x1f' +
      (seed_matters ? std::to_string(job.seed) : std::string());
  // Loads happen under the map lock: simple, and a batch's graph set is
  // loaded once in its first wave while factorization dominates anyway.
  const std::scoped_lock lock(graphs_mutex_);
  const auto it = graphs_.find(key);
  if (it != graphs_.end()) {
    it->second->last_use = ++graphs_tick_;
    return it->second;
  }

  Multigraph g =
      is_file_source(job.graph)
          ? load_graph_file(job.graph.substr(std::string(kFilePrefix).size()),
                            GraphFileFormat::kAuto,
                            job.laplacian ? MatrixMarketKind::kLaplacian
                                          : MatrixMarketKind::kAdjacency)
          : make_generated_graph(job.graph, job.seed);
  if (!job.weights.empty()) {
    apply_weights(g, parse_weight_model(job.weights), job.seed + 1);
  }
  if (g.num_vertices() == 0) {
    throw std::runtime_error("graph '" + job.graph + "' has no vertices");
  }

  auto loaded = std::make_shared<LoadedGraph>();
  loaded->fingerprint = graph_fingerprint(g);
  loaded->components = connected_components(g);
  loaded->graph = std::make_shared<const Multigraph>(std::move(g));
  loaded->last_use = ++graphs_tick_;
  graphs_.emplace(key, loaded);
  // LRU bound: evicted graphs stay alive for jobs holding the pointer.
  while (options_.graph_cache_limit > 0 &&
         graphs_.size() > options_.graph_cache_limit) {
    auto victim = graphs_.begin();
    for (auto gi = graphs_.begin(); gi != graphs_.end(); ++gi) {
      if (gi->second->last_use < victim->second->last_use) victim = gi;
    }
    graphs_.erase(victim);
  }
  return loaded;
}

Precision SolveEngine::job_precision(const SolveJob& job) const {
  if (job.precision.empty()) return options_.precision;
  // parse_job_object validated the spelling; programmatic jobs go
  // through the same gate here.
  const auto mode = parse_precision(job.precision);
  if (!mode.has_value()) {
    throw std::invalid_argument("job '" + job.id + "': unknown precision '" +
                                job.precision + "' (want fp64|fp32|auto)");
  }
  return *mode;
}

JobResult SolveEngine::run_one(const SolveJob& job) {
  JobResult result;
  const std::size_t member = 0;
  (void)run_panel_task({&job, 1}, {&member, 1}, {&result, 1});
  return result;
}

PanelStats SolveEngine::run_panel_task(std::span<const SolveJob> jobs,
                                       std::span<const std::size_t> members,
                                       std::span<JobResult> results) {
  PanelStats panel;
  panel.width = static_cast<int>(members.size());
  for (const std::size_t i : members) panel.job_ids.push_back(jobs[i].id);
  const WallTimer panel_timer;

  // Per-job rhs construction and compatibility checks run individually
  // so one bad job fails alone; the survivors share the panel solve.
  std::vector<std::size_t> survivors;
  std::vector<Vector> bs;
  std::shared_ptr<const LoadedGraph> loaded;
  for (const std::size_t i : members) {
    const SolveJob& job = jobs[i];
    JobResult& result = results[i];
    result.id = job.id;
    try {
      if (!loaded) loaded = graph_for(job);  // one key, one graph
      const Vertex n = loaded->graph->num_vertices();
      Vector b = job_rhs(job, n);
      const RhsCompatibility compat =
          check_rhs_compatibility(b, loaded->components);
      if (!compat.compatible && !job.project_rhs) {
        throw std::runtime_error(
            "right-hand side is incompatible: component " +
            std::to_string(compat.worst_component) + " has relative net "
            "imbalance " + std::to_string(compat.worst_imbalance) +
            " (set \"project_rhs\": true to solve the least-squares "
            "projection)");
      }
      survivors.push_back(i);
      bs.push_back(std::move(b));
    } catch (const std::exception& e) {
      result.ok = false;
      result.error = e.what();
    }
  }

  if (!survivors.empty()) {
    const SolveJob& lead = jobs[survivors.front()];
    try {
      // Resolve kAuto against the loaded graph BEFORE keying, so an fp32
      // and an fp64 factorization of the same graph never collide and an
      // auto job shares the entry of the mode it resolves to.
      const Precision precision = resolve_precision(
          job_precision(lead), loaded->graph->num_vertices());
      FactorizationKey key;
      key.graph_hash = loaded->fingerprint;
      key.method = lead.method;
      key.seed = lead.seed;
      key.split_scale = lead.split_scale;
      key.max_iterations = lead.max_iterations;
      key.precision = precision;
      SolverConfig config;
      config.seed = lead.seed;
      config.split_scale = lead.split_scale;
      config.max_iterations = lead.max_iterations;
      config.precision = precision;
      const Multigraph& graph = *loaded->graph;
      const WallTimer factor_timer;
      const auto [solver, hit] = cache_.get_or_create(
          key,
          [&] {
            return SolverRegistry::instance().create(lead.method, graph,
                                                     config);
          },
          &panel.cache);
      const double factor_seconds = factor_timer.seconds();

      std::vector<Vector> xs(survivors.size());
      const std::vector<RunReport> reports =
          solver->solve_panel(bs, xs, lead.eps);
      for (std::size_t j = 0; j < survivors.size(); ++j) {
        JobResult& result = results[survivors[j]];
        result.cache_hit = hit;
        result.build_seconds =
            factor_seconds / static_cast<double>(survivors.size());
        result.report = reports[j];
        result.solution_hash = hash_solution(xs[j]);
        if (options_.keep_solutions) result.solution = std::move(xs[j]);
        result.ok = true;
        panel.solve_seconds += reports[j].solve_seconds;
        panel.apply_seconds += reports[j].apply_seconds;
      }
    } catch (const std::exception& e) {
      for (const std::size_t i : survivors) {
        results[i].ok = false;
        results[i].error = e.what();
      }
    }
  }

  // Shared wall time split evenly, so per-job walls still sum to real
  // batch cost.
  const double share =
      panel_timer.seconds() / static_cast<double>(members.size());
  for (const std::size_t i : members) results[i].wall_seconds = share;
  return panel;
}

BatchResult SolveEngine::run(std::span<const SolveJob> jobs) {
  BatchResult batch;
  batch.jobs.resize(jobs.size());
  PARLAP_TRACE_SPAN_N(batch_span, "engine.batch", "queue");
  const WallTimer batch_timer;
  const std::uint64_t batch_start_ns = steady_now_ns();

  // Task list: at block_width 1 every job is its own width-1 panel, in
  // input order (so workers start distinct factorizations side by side);
  // otherwise jobs are grouped by panel_group_key in input order and
  // chunked to the width. Built before any worker runs, so the panel
  // composition never depends on scheduling.
  const auto width =
      static_cast<std::size_t>(std::max(1, options_.block_width));
  std::vector<std::vector<std::size_t>> tasks;
  if (width <= 1) {
    tasks.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) tasks.push_back({i});
  } else {
    std::unordered_map<std::string, std::vector<std::size_t>> groups;
    std::vector<std::string> group_order;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const std::string key = panel_group_key(jobs[i]);
      auto [it, inserted] = groups.try_emplace(key);
      if (inserted) group_order.push_back(key);
      it->second.push_back(i);
    }
    for (const std::string& key : group_order) {
      const std::vector<std::size_t>& g = groups[key];
      for (std::size_t start = 0; start < g.size(); start += width) {
        const std::size_t len = std::min(width, g.size() - start);
        tasks.emplace_back(g.begin() + static_cast<std::ptrdiff_t>(start),
                           g.begin() + static_cast<std::ptrdiff_t>(start + len));
      }
    }
  }
  batch.panels.resize(tasks.size());

  const std::uint64_t session = open_session();
  try {
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      submit(session, [&, t] {
        const std::vector<std::size_t>& members = tasks[t];
        // Queue wait: batch submission -> this pickup. Recorded per task
        // so the percentiles below see the whole backlog distribution.
        const double queue_seconds =
            static_cast<double>(steady_now_ns() - batch_start_ns) * 1e-9;
        PARLAP_TRACE_SPAN_N(task_span, "engine.task", "queue");
        task_span.arg("task", static_cast<double>(t));
        task_span.arg("width", static_cast<double>(members.size()));
        task_span.arg("queue_ms", queue_seconds * 1e3);
        const WallTimer task_timer;
        batch.panels[t] = run_panel_task(jobs, members, batch.jobs);
        batch.panels[t].queue_seconds = queue_seconds;
        batch.panels[t].exec_seconds = task_timer.seconds();
      });
    }
  } catch (...) {
    // The queued tasks point into this frame: drop them, and let the
    // running ones finish, before unwinding it.
    cancel(session);
    wait(session);
    throw;
  }
  wait(session);

  EngineStats& stats = batch.stats;
  stats.jobs = static_cast<std::int64_t>(jobs.size());
  stats.wall_seconds = batch_timer.seconds();
  // Latency digests: per-batch histograms feed EngineStats, and every
  // sample is mirrored into the process-wide registry so a long-lived
  // engine's cumulative view (the future serve daemon's /metrics)
  // accrues for free.
  EngineMetrics& metrics = EngineMetrics::get();
  obs::LatencyHistogram solve_hist;
  obs::LatencyHistogram queue_hist;
  for (const JobResult& r : batch.jobs) {
    if (!r.ok) {
      ++stats.failed;
      continue;
    }
    ++stats.succeeded;
    if (r.report.converged) ++stats.converged;
    solve_hist.record_seconds(r.report.solve_seconds);
    metrics.solve_seconds.record_seconds(r.report.solve_seconds);
  }
  for (const PanelStats& p : batch.panels) {
    stats.cache += p.cache;
    queue_hist.record_seconds(p.queue_seconds);
    metrics.queue_seconds.record_seconds(p.queue_seconds);
    metrics.task_seconds.record_seconds(p.exec_seconds);
  }
  metrics.jobs.add(static_cast<std::uint64_t>(jobs.size()));
  metrics.panels.add(batch.panels.size());
  if (stats.wall_seconds > 0.0) {
    stats.solves_per_second =
        static_cast<double>(stats.succeeded) / stats.wall_seconds;
  }
  const obs::MetricSample solve = obs::histogram_sample(solve_hist);
  const obs::MetricSample queue = obs::histogram_sample(queue_hist);
  stats.p50_solve_seconds = solve.p50;
  stats.p95_solve_seconds = solve.p95;
  stats.p99_solve_seconds = solve.p99;
  stats.p50_queue_seconds = queue.p50;
  stats.p95_queue_seconds = queue.p95;
  stats.p99_queue_seconds = queue.p99;
  stats.panels = static_cast<std::int64_t>(batch.panels.size());
  if (!batch.panels.empty()) {
    stats.panel_occupancy =
        static_cast<double>(jobs.size()) /
        (static_cast<double>(batch.panels.size()) *
         static_cast<double>(std::max(1, options_.block_width)));
  }
  // Counters are this batch's own lookups (so a warmed engine's second
  // run shows its true steady-state hit rate); resident_* stay absolute.
  const FactorizationCache::Stats now = cache_.stats();
  stats.cache.resident_entries = now.resident_entries;
  stats.cache.resident_count = now.resident_count;
  if (stats.cache.lookups() > 0) {
    stats.cache_hit_rate = static_cast<double>(stats.cache.hits) /
                           static_cast<double>(stats.cache.lookups());
  }
  batch_span.arg("jobs", static_cast<double>(stats.jobs));
  batch_span.arg("panels", static_cast<double>(stats.panels));
  batch_span.arg("workers", static_cast<double>(options_.workers));
  return batch;
}

}  // namespace parlap::service
