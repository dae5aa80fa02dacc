// SolveEngine integration tests: job-file parsing, batch determinism
// across worker counts (the acceptance property of the subsystem),
// cache sharing, per-job failure isolation, and the worker pool's
// round-robin scheduling and cancellation.
#include "service/solve_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <future>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "service/job_file.hpp"

namespace parlap::service {
namespace {

std::vector<SolveJob> mixed_jobs() {
  return parse_jobs_jsonl(std::string(R"(
# three jobs on one graph (cache sharing), two more families
{"id": "a1", "graph": "ws:150,4,0.2", "method": "parlap", "rhs": "random", "seed": 7}
{"id": "a2", "graph": "ws:150,4,0.2", "method": "parlap", "rhs": "random:1", "seed": 7}
{"id": "a3", "graph": "ws:150,4,0.2", "method": "parlap", "rhs": "demand:0,80", "seed": 7}
{"id": "b1", "graph": "grid2d:10", "method": "cg-jacobi", "rhs": "random", "seed": 5}
{"id": "c1", "graph": "gnm:120,480", "method": "cg", "rhs": "random", "seed": 3, "eps": 1e-7}
)"));
}

TEST(JobFile, ParsesFieldsAndDefaults) {
  const std::vector<SolveJob> jobs = parse_jobs_jsonl(std::string(
      "{\"graph\": \"grid2d:4\"}\n"
      "{\"id\": \"x\", \"graph\": \"file:g.mtx\", \"laplacian\": true, "
      "\"weights\": \"uniform:1,2\", \"method\": \"dense\", "
      "\"rhs\": \"demand:0,3\", \"eps\": 1e-6, \"seed\": 9, "
      "\"split_scale\": 0.2, \"max_iterations\": 50, "
      "\"project_rhs\": true}\n"));
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].id, "job1");  // line-number default
  EXPECT_EQ(jobs[0].method, "parlap");
  EXPECT_EQ(jobs[0].rhs, "random");
  EXPECT_DOUBLE_EQ(jobs[0].eps, 1e-8);
  EXPECT_EQ(jobs[0].seed, 42u);
  EXPECT_FALSE(jobs[0].laplacian);

  EXPECT_EQ(jobs[1].id, "x");
  EXPECT_EQ(jobs[1].graph, "file:g.mtx");
  EXPECT_TRUE(jobs[1].laplacian);
  EXPECT_EQ(jobs[1].weights, "uniform:1,2");
  EXPECT_EQ(jobs[1].method, "dense");
  EXPECT_EQ(jobs[1].rhs, "demand:0,3");
  EXPECT_DOUBLE_EQ(jobs[1].eps, 1e-6);
  EXPECT_EQ(jobs[1].seed, 9u);
  EXPECT_DOUBLE_EQ(jobs[1].split_scale, 0.2);
  EXPECT_EQ(jobs[1].max_iterations, 50);
  EXPECT_TRUE(jobs[1].project_rhs);
}

TEST(JobFile, SkipsCommentsAndBlankLines) {
  const auto jobs = parse_jobs_jsonl(std::string(
      "# a comment\n\n   \n{\"graph\": \"path:4\"}\n# tail\n"));
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].id, "job4");  // ids count physical lines
}

TEST(JobFile, RejectsBadLinesWithLineNumbers) {
  const auto expect_throw_mentioning = [](const std::string& text,
                                          const std::string& needle) {
    try {
      (void)parse_jobs_jsonl(text);
      FAIL() << "expected failure for: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line"), std::string::npos);
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_throw_mentioning("{\"method\": \"parlap\"}", "graph");
  expect_throw_mentioning("{\"graph\": \"p:4\", \"bogus\": 1}", "bogus");
  expect_throw_mentioning("not json", "json");
  expect_throw_mentioning("[1, 2]", "object");
  expect_throw_mentioning("{\"graph\": \"p:4\", \"eps\": 2.0}", "eps");
  expect_throw_mentioning("{\"graph\": \"p:4\", \"seed\": -1}", "seed");
  expect_throw_mentioning("{\"graph\": \"p:4\", \"seed\": 1e300}", "seed");
  expect_throw_mentioning("{\"graph\": \"p:4\", \"seed\": 1.5}", "seed");
  // Ids become file names; path separators and friends are rejected.
  expect_throw_mentioning("{\"id\": \"a/b\", \"graph\": \"p:4\"}", "id");
  expect_throw_mentioning("{\"id\": \"\", \"graph\": \"p:4\"}", "id");
  expect_throw_mentioning(
      "{\"id\": \"d\", \"graph\": \"p:4\"}\n{\"id\": \"d\", \"graph\": "
      "\"p:4\"}",
      "duplicate");
}

TEST(SolveEngine, BatchSolvesAndSharesFactorizations) {
  SolveEngine engine({.workers = 2});
  const BatchResult batch = engine.run(mixed_jobs());
  ASSERT_EQ(batch.jobs.size(), 5u);
  for (const JobResult& r : batch.jobs) {
    EXPECT_TRUE(r.ok) << r.id << ": " << r.error;
    EXPECT_TRUE(r.report.converged) << r.id;
    EXPECT_GT(r.solution_hash, 0u) << r.id;
  }
  // a1/a2/a3 share one factorization: exactly 2 hits among them.
  EXPECT_EQ(batch.stats.cache.misses, 3u);
  EXPECT_EQ(batch.stats.cache.hits, 2u);
  EXPECT_EQ(batch.stats.jobs, 5);
  EXPECT_EQ(batch.stats.succeeded, 5);
  EXPECT_EQ(batch.stats.converged, 5);
  EXPECT_GT(batch.stats.solves_per_second, 0.0);
  EXPECT_GE(batch.stats.p95_solve_seconds, batch.stats.p50_solve_seconds);
}

TEST(SolveEngine, DeterministicAcrossWorkerCountsAndOrder) {
  // The acceptance property: same job file + seeds => bit-identical
  // solutions whatever the worker count or completion order. Runs the
  // batch with 1 and 4 workers, plus a shuffled copy, and compares the
  // full solution vectors (not just hashes).
  std::vector<SolveJob> jobs = mixed_jobs();
  EngineOptions keep;
  keep.keep_solutions = true;

  keep.workers = 1;
  const BatchResult serial = SolveEngine(keep).run(jobs);
  keep.workers = 4;
  const BatchResult pooled = SolveEngine(keep).run(jobs);

  std::vector<SolveJob> reversed(jobs.rbegin(), jobs.rend());
  const BatchResult reordered = SolveEngine(keep).run(reversed);

  ASSERT_EQ(serial.jobs.size(), pooled.jobs.size());
  for (std::size_t i = 0; i < serial.jobs.size(); ++i) {
    const JobResult& a = serial.jobs[i];
    const JobResult& b = pooled.jobs[i];
    ASSERT_TRUE(a.ok && b.ok) << a.id;
    EXPECT_EQ(a.solution_hash, b.solution_hash) << a.id;
    EXPECT_EQ(a.solution, b.solution) << a.id;  // bitwise
    EXPECT_EQ(a.report.iterations, b.report.iterations) << a.id;
    EXPECT_EQ(a.report.relative_residual, b.report.relative_residual)
        << a.id;

    // The same job submitted in reverse order lands at the mirrored
    // index with the identical solution.
    const JobResult& c = reordered.jobs[reordered.jobs.size() - 1 - i];
    ASSERT_EQ(c.id, a.id);
    EXPECT_EQ(a.solution, c.solution) << a.id;
  }
}

TEST(SolveEngine, BlockedBatchIsBitIdenticalAndGroupsPanels) {
  // Panel grouping: at block_width 4 the three ws-graph jobs share one
  // solve_panel call, yet every job's solution is bit-identical to the
  // width-1 (scalar) run at any worker count.
  const std::vector<SolveJob> jobs = mixed_jobs();
  EngineOptions scalar;
  scalar.keep_solutions = true;
  const BatchResult reference = SolveEngine(scalar).run(jobs);
  EXPECT_EQ(reference.stats.panels, 5);
  EXPECT_DOUBLE_EQ(reference.stats.panel_occupancy, 1.0);

  for (const int workers : {1, 4}) {
    EngineOptions blocked;
    blocked.keep_solutions = true;
    blocked.block_width = 4;
    blocked.workers = workers;
    SolveEngine engine(blocked);
    const BatchResult batch = engine.run(jobs);
    ASSERT_EQ(batch.jobs.size(), reference.jobs.size());
    for (std::size_t i = 0; i < batch.jobs.size(); ++i) {
      const JobResult& a = reference.jobs[i];
      const JobResult& b = batch.jobs[i];
      ASSERT_TRUE(a.ok && b.ok) << a.id;
      EXPECT_EQ(a.solution_hash, b.solution_hash) << a.id;
      EXPECT_EQ(a.solution, b.solution) << a.id;  // bitwise
      EXPECT_EQ(a.report.iterations, b.report.iterations) << a.id;
      EXPECT_EQ(a.report.relative_residual, b.report.relative_residual)
          << a.id;
    }
    // a1/a2/a3 collapse into one panel; b1 and c1 stay singletons.
    EXPECT_EQ(batch.stats.panels, 3);
    ASSERT_EQ(batch.panels.size(), 3u);
    std::vector<int> widths;
    for (const PanelStats& p : batch.panels) {
      widths.push_back(p.width);
      EXPECT_GE(p.solve_seconds, 0.0);
      EXPECT_GE(p.apply_seconds, 0.0);
    }
    std::sort(widths.begin(), widths.end());
    EXPECT_EQ(widths, (std::vector<int>{1, 1, 3}));
    EXPECT_NEAR(batch.stats.panel_occupancy, 5.0 / (3.0 * 4.0), 1e-12);
    // Cache counters count panels: three lookups, all misses on a cold
    // engine (the ws jobs share one lookup instead of one hit each).
    EXPECT_EQ(batch.stats.cache.misses, 3u);
    EXPECT_EQ(batch.stats.cache.hits, 0u);
  }
}

TEST(SolveEngine, BlockedBatchIsolatesBadJobsInsideAPanel) {
  // A panel member with an unsolvable rhs fails alone; its panel-mates
  // still solve (and match their scalar solutions).
  const std::vector<SolveJob> jobs = parse_jobs_jsonl(std::string(R"(
{"id": "ok1", "graph": "grid2d:7", "method": "parlap", "rhs": "random"}
{"id": "bad", "graph": "grid2d:7", "method": "parlap", "rhs": "demand:0,99999"}
{"id": "ok2", "graph": "grid2d:7", "method": "parlap", "rhs": "random:2"}
)"));
  EngineOptions scalar;
  scalar.keep_solutions = true;
  const BatchResult reference = SolveEngine(scalar).run(jobs);

  EngineOptions blocked = scalar;
  blocked.block_width = 3;
  const BatchResult batch = SolveEngine(blocked).run(jobs);
  ASSERT_EQ(batch.jobs.size(), 3u);
  EXPECT_TRUE(batch.jobs[0].ok);
  EXPECT_FALSE(batch.jobs[1].ok);
  EXPECT_NE(batch.jobs[1].error.find("demand"), std::string::npos);
  EXPECT_TRUE(batch.jobs[2].ok);
  EXPECT_EQ(batch.jobs[0].solution, reference.jobs[0].solution);
  EXPECT_EQ(batch.jobs[2].solution, reference.jobs[2].solution);
  EXPECT_EQ(batch.stats.panels, 1);
  ASSERT_EQ(batch.panels.size(), 1u);
  EXPECT_EQ(batch.panels[0].width, 3);  // grouped before the rhs failed
}

TEST(SolveEngine, JobRhsIsKeyedByJobIdentity) {
  SolveJob job;
  job.id = "r1";
  job.seed = 5;
  const Vector a = job_rhs(job, 50);
  const Vector same = job_rhs(job, 50);
  EXPECT_EQ(a, same);

  SolveJob other = job;
  other.id = "r2";
  EXPECT_NE(a, job_rhs(other, 50));  // different id, different stream

  SolveJob indexed = job;
  indexed.rhs = "random:3";
  EXPECT_NE(a, job_rhs(indexed, 50));

  SolveJob demand = job;
  demand.rhs = "demand:2,7";
  const Vector d = job_rhs(demand, 10);
  EXPECT_DOUBLE_EQ(d[2], 1.0);
  EXPECT_DOUBLE_EQ(d[7], -1.0);

  SolveJob bad = job;
  bad.rhs = "demand:0,0";
  EXPECT_THROW((void)job_rhs(bad, 10), std::invalid_argument);
  bad.rhs = "wat";
  EXPECT_THROW((void)job_rhs(bad, 10), std::invalid_argument);
  // strtoull would wrap "-1" to 2^64-1 and skip whitespace; both are
  // rejected up front.
  bad.rhs = "random:-1";
  EXPECT_THROW((void)job_rhs(bad, 10), std::invalid_argument);
  bad.rhs = "random: 5";
  EXPECT_THROW((void)job_rhs(bad, 10), std::invalid_argument);
}

TEST(SolveEngine, FailedJobsAreIsolated) {
  const std::vector<SolveJob> jobs = parse_jobs_jsonl(std::string(R"(
{"id": "good", "graph": "grid2d:6", "method": "parlap"}
{"id": "bad-method", "graph": "grid2d:6", "method": "no-such-method"}
{"id": "bad-graph", "graph": "nope:3"}
{"id": "bad-demand", "graph": "grid2d:6", "rhs": "demand:0,99999"}
{"id": "also-good", "graph": "grid2d:6", "method": "cg"}
)"));
  SolveEngine engine({.workers = 3});
  const BatchResult batch = engine.run(jobs);
  ASSERT_EQ(batch.jobs.size(), 5u);
  EXPECT_TRUE(batch.jobs[0].ok);
  EXPECT_FALSE(batch.jobs[1].ok);
  EXPECT_NE(batch.jobs[1].error.find("no-such-method"), std::string::npos);
  EXPECT_FALSE(batch.jobs[2].ok);
  EXPECT_FALSE(batch.jobs[3].ok);
  EXPECT_TRUE(batch.jobs[4].ok);
  EXPECT_EQ(batch.stats.failed, 3);
  EXPECT_EQ(batch.stats.succeeded, 2);
}

TEST(SolveEngine, ImbalancedRhsFailsUnlessProjected) {
  // Two components (edge list, vertex count inferred); a demand rhs
  // across them has no exact solution.
  const std::string path =
      std::string(::testing::TempDir()) + "engine_disconnected.el";
  {
    std::ofstream os(path);
    os << "0 1 1.0\n2 3 1.0\n";
  }
  const auto run_one = [&](bool project) {
    std::string text = R"({"id": "x", "graph": "file:)" + path +
                       R"(", "rhs": "demand:0,3")" +
                       (project ? R"(, "project_rhs": true})" : "}");
    SolveEngine engine({.workers = 1});
    return engine.run(parse_jobs_jsonl(text)).jobs.at(0);
  };
  const JobResult refused = run_one(false);
  EXPECT_FALSE(refused.ok);
  EXPECT_NE(refused.error.find("incompatible"), std::string::npos);
  const JobResult projected = run_one(true);
  EXPECT_TRUE(projected.ok) << projected.error;
  std::remove(path.c_str());
}

TEST(SolveEngine, CacheBudgetCausesEvictions) {
  // Many distinct graphs under a tiny budget: the cache must evict and
  // the batch must still complete correctly.
  const std::vector<SolveJob> jobs = parse_jobs_jsonl(std::string(R"(
{"id": "g0", "graph": "grid2d:8"}
{"id": "g1", "graph": "grid2d:9"}
{"id": "g2", "graph": "grid2d:10"}
{"id": "g3", "graph": "grid2d:11"}
{"id": "g4", "graph": "grid2d:12"}
{"id": "g5", "graph": "grid2d:13"}
)"));
  EngineOptions opts;
  opts.workers = 1;
  opts.cache_budget_entries = 1;  // at most the MRU entry stays
  SolveEngine engine(opts);
  const BatchResult batch = engine.run(jobs);
  for (const JobResult& r : batch.jobs) {
    EXPECT_TRUE(r.ok) << r.id << ": " << r.error;
  }
  EXPECT_EQ(batch.stats.cache.misses, 6u);
  EXPECT_GE(batch.stats.cache.evictions, 5u);
  EXPECT_EQ(batch.stats.cache.resident_count, 1u);
}

/// Occupies one pool thread until released, so tests can queue work
/// behind it and look at the queue before anything else runs.
class BusyWorker {
 public:
  explicit BusyWorker(SolveEngine& engine, std::size_t cost = 0)
      : engine_(engine), session_(engine.open_session()) {
    std::future<void> started = started_.get_future();
    engine_.submit(
        session_,
        [this, gate = release_.get_future().share()] {
          started_.set_value();
          gate.wait();
        },
        cost);
    started.wait();
  }
  ~BusyWorker() { release(); }

  void release() {
    if (released_) return;
    released_ = true;
    release_.set_value();
    engine_.wait(session_);
  }

 private:
  SolveEngine& engine_;
  std::uint64_t session_;
  std::promise<void> started_;
  std::promise<void> release_;
  bool released_ = false;
};

TEST(SolveEnginePool, ServesSessionsRoundRobinOneTaskPerTurn) {
  SolveEngine engine({.workers = 1});
  BusyWorker busy(engine);
  const std::uint64_t a = engine.open_session();
  const std::uint64_t b = engine.open_session();
  ASSERT_NE(a, b);
  std::mutex mutex;
  std::vector<std::string> order;
  const auto record = [&](const char* name) {
    return [&mutex, &order, name] {
      const std::scoped_lock lock(mutex);
      order.emplace_back(name);
    };
  };
  engine.submit(a, record("A1"));
  engine.submit(a, record("A2"));
  engine.submit(a, record("A3"));
  engine.submit(b, record("B1"));
  const SolveEngine::QueueStats held = engine.queue_stats();
  EXPECT_EQ(held.queued, 4u);
  EXPECT_EQ(held.in_flight, 1u);

  busy.release();
  engine.wait(a);
  engine.wait(b);
  EXPECT_EQ(order, (std::vector<std::string>{"A1", "B1", "A2", "A3"}));
}

TEST(SolveEnginePool, CancelDropsQueuedTasksAndReleasesCounts) {
  SolveEngine engine({.workers = 1});
  BusyWorker busy(engine, /*cost=*/5);
  const std::uint64_t s = engine.open_session();
  std::atomic<int> ran{0};
  for (int i = 0; i < 3; ++i) engine.submit(s, [&ran] { ++ran; }, 10);
  SolveEngine::QueueStats q = engine.queue_stats();
  EXPECT_EQ(q.queued, 3u);
  EXPECT_EQ(q.in_flight, 1u);
  EXPECT_EQ(q.cost, 35u);

  EXPECT_EQ(engine.cancel(s), 3u);
  q = engine.queue_stats();
  EXPECT_EQ(q.queued, 0u);
  EXPECT_EQ(q.cost, 5u);  // the running task keeps its cost until done
  engine.wait(s);         // nothing of s is queued or running

  busy.release();
  q = engine.queue_stats();
  EXPECT_EQ(q.queued, 0u);
  EXPECT_EQ(q.in_flight, 0u);
  EXPECT_EQ(q.cost, 0u);
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(engine.cancel(s), 0u);
}

TEST(SolveEngine, ConcurrentBatchesCountOnlyTheirLookups) {
  // Two batches of six distinct graphs queue behind both held workers,
  // then run interleaved on the one pool. Each batch's cache counters
  // count its own six lookups, never the other batch's.
  const std::vector<SolveJob> first = parse_jobs_jsonl(std::string(R"(
{"id": "a0", "graph": "grid2d:8"}
{"id": "a1", "graph": "grid2d:9"}
{"id": "a2", "graph": "grid2d:10"}
{"id": "a3", "graph": "grid2d:11"}
{"id": "a4", "graph": "grid2d:12"}
{"id": "a5", "graph": "grid2d:13"}
)"));
  const std::vector<SolveJob> second = parse_jobs_jsonl(std::string(R"(
{"id": "b0", "graph": "grid2d:14"}
{"id": "b1", "graph": "grid2d:15"}
{"id": "b2", "graph": "grid2d:16"}
{"id": "b3", "graph": "grid2d:17"}
{"id": "b4", "graph": "grid2d:18"}
{"id": "b5", "graph": "grid2d:19"}
)"));
  SolveEngine engine({.workers = 2});
  BusyWorker hold_one(engine);
  BusyWorker hold_two(engine);
  BatchResult a;
  BatchResult b;
  std::thread run_a([&] { a = engine.run(first); });
  std::thread run_b([&] { b = engine.run(second); });
  while (engine.queue_stats().queued < first.size() + second.size()) {
    std::this_thread::yield();
  }
  hold_one.release();
  hold_two.release();
  run_a.join();
  run_b.join();

  for (const BatchResult* batch : {&a, &b}) {
    for (const JobResult& r : batch->jobs) {
      EXPECT_TRUE(r.ok) << r.id << ": " << r.error;
    }
    EXPECT_EQ(batch->stats.cache.hits + batch->stats.cache.misses, 6u);
  }
  EXPECT_EQ(a.stats.cache.misses + b.stats.cache.misses,
            engine.cache_stats().misses);
}

TEST(SolveEngine, ConcurrentRunsOnOneEngineMatchSoloRuns) {
  // Two batches share one 2-worker pool as two sessions; each job's
  // answer is still the pure function of the job a solo run gives.
  const std::vector<SolveJob> jobs = mixed_jobs();
  const std::vector<SolveJob> reversed(jobs.rbegin(), jobs.rend());
  SolveEngine solo_engine({.workers = 1});
  const BatchResult solo = solo_engine.run(jobs);

  SolveEngine shared({.workers = 2});
  BatchResult forward;
  BatchResult backward;
  std::thread first([&] { forward = shared.run(jobs); });
  std::thread second([&] { backward = shared.run(reversed); });
  first.join();
  second.join();

  ASSERT_EQ(forward.jobs.size(), solo.jobs.size());
  ASSERT_EQ(backward.jobs.size(), solo.jobs.size());
  for (std::size_t i = 0; i < solo.jobs.size(); ++i) {
    const JobResult& want = solo.jobs[i];
    const JobResult& back = backward.jobs[solo.jobs.size() - 1 - i];
    ASSERT_TRUE(want.ok) << want.id << ": " << want.error;
    EXPECT_EQ(forward.jobs[i].solution_hash, want.solution_hash) << want.id;
    ASSERT_EQ(back.id, want.id);
    EXPECT_EQ(back.solution_hash, want.solution_hash) << want.id;
  }
  const SolveEngine::QueueStats q = shared.queue_stats();
  EXPECT_EQ(q.queued + q.in_flight + q.cost, 0u);
}

}  // namespace
}  // namespace parlap::service
