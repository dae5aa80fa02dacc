// parlap_cli — the front door to the parlap library.
//
// One binary over the api facade (SolverRegistry / AnySolver): any graph
// a user has (Matrix Market, edge lists, generator specs) flows through
// the same subcommands —
//
//   solve   factor a graph under any registered method, solve one or
//           many right-hand sides, report human table and/or JSON
//   batch   run a JSONL job file through the concurrent SolveEngine
//           (shared factorization cache, --workers N)
//   info    graph / component / degree statistics
//   gen     write generator output to Matrix Market or edge-list files
//   bench   quick E1-style scaling sweep of one method
//
// Exit codes: 0 success, 1 solve ran but missed the residual target (or
// a batch job failed/missed), 2 usage error, 3 input or runtime error.
// docs/CLI.md is the reference.
#include <omp.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/any_solver.hpp"
#include "api/graph_source.hpp"
#include "core/build_stats.hpp"
#include "api/rhs.hpp"
#include "api/solver_registry.hpp"
#include "graph/connectivity.hpp"
#include "graph/csr.hpp"
#include "graph/io.hpp"
#include "harness/json_writer.hpp"
#include "linalg/kernels/kernels.hpp"
#include "linalg/kernels/numa.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/job_file.hpp"
#include "service/solve_engine.hpp"
#include "support/json_writer.hpp"
#include "support/table.hpp"

namespace {

using namespace parlap;

constexpr int kExitOk = 0;
constexpr int kExitNotConverged = 1;
constexpr int kExitUsage = 2;
constexpr int kExitInput = 3;

/// Thrown for malformed command lines; main() prints usage and exits 2.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// ---------------------------------------------------------------------------
// Argument parsing
// ---------------------------------------------------------------------------

class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  /// Consumes `flag` if present (no value). Returns whether it was there.
  bool take_flag(const std::string& flag) {
    const auto it = std::find(args_.begin(), args_.end(), flag);
    if (it == args_.end()) return false;
    args_.erase(it);
    return true;
  }

  /// Consumes `flag VALUE` if present; returns the value.
  std::optional<std::string> take_value(const std::string& flag) {
    const auto it = std::find(args_.begin(), args_.end(), flag);
    if (it == args_.end()) return std::nullopt;
    const auto val = std::next(it);
    if (val == args_.end() || (val->size() > 1 && (*val)[0] == '-' &&
                               !std::isdigit(static_cast<unsigned char>((*val)[1])))) {
      throw UsageError("option " + flag + " needs a value");
    }
    std::string out = *val;
    args_.erase(it, std::next(val));
    return out;
  }

  double take_double(const std::string& flag, double fallback) {
    const auto v = take_value(flag);
    if (!v) return fallback;
    try {
      std::size_t used = 0;
      const double d = std::stod(*v, &used);
      if (used != v->size()) throw std::invalid_argument(*v);
      return d;
    } catch (const std::exception&) {
      throw UsageError("option " + flag + ": '" + *v + "' is not a number");
    }
  }

  std::int64_t take_int(const std::string& flag, std::int64_t fallback) {
    const auto v = take_value(flag);
    if (!v) return fallback;
    try {
      std::size_t used = 0;
      const std::int64_t i = std::stoll(*v, &used);
      if (used != v->size()) throw std::invalid_argument(*v);
      return i;
    } catch (const std::exception&) {
      throw UsageError("option " + flag + ": '" + *v + "' is not an integer");
    }
  }

  /// All options must have been consumed by now.
  void expect_empty() const {
    if (!args_.empty()) {
      throw UsageError("unrecognized option '" + args_.front() + "'");
    }
  }

 private:
  std::vector<std::string> args_;
};

// ---------------------------------------------------------------------------
// Shared input handling (solve / info)
// ---------------------------------------------------------------------------

struct InputOptions {
  std::string input_path;  ///< --input
  std::string gen_spec;    ///< --gen
  bool laplacian = false;  ///< --laplacian (.mtx entries are L values)
  std::string weights;     ///< --weights
  std::uint64_t seed = 42;
};

InputOptions take_input_options(Args& args) {
  InputOptions in;
  in.input_path = args.take_value("--input").value_or("");
  in.gen_spec = args.take_value("--gen").value_or("");
  in.laplacian = args.take_flag("--laplacian");
  in.weights = args.take_value("--weights").value_or("");
  in.seed = static_cast<std::uint64_t>(args.take_int("--seed", 42));
  if (const auto t = args.take_int("--threads", 0); t > 0) {
    omp_set_num_threads(static_cast<int>(t));
  }
  return in;
}

Multigraph load_input(const InputOptions& in) {
  if (in.input_path.empty() == in.gen_spec.empty()) {
    throw UsageError("exactly one of --input PATH or --gen SPEC is required");
  }
  Multigraph g =
      in.input_path.empty()
          ? make_generated_graph(in.gen_spec, in.seed)
          : load_graph_file(in.input_path, GraphFileFormat::kAuto,
                            in.laplacian ? MatrixMarketKind::kLaplacian
                                         : MatrixMarketKind::kAdjacency);
  if (!in.weights.empty()) {
    apply_weights(g, parse_weight_model(in.weights), in.seed + 1);
  }
  if (g.num_vertices() == 0) {
    throw std::runtime_error("input graph has no vertices");
  }
  return g;
}

std::string describe_input(const InputOptions& in) {
  return in.input_path.empty() ? "gen:" + in.gen_spec : in.input_path;
}

void write_json_metadata(JsonWriter& w) {
  const bench::RunMetadata md = bench::collect_metadata();
  w.key("metadata");
  w.begin_object();
  w.member("commit", md.commit);
  w.member("timestamp_utc", md.timestamp_utc);
  w.member("hostname", md.hostname);
  w.member("compiler", md.compiler);
  w.member("build_type", md.build_type);
  w.member("threads", md.threads);
  w.end_object();
}

std::ofstream open_output(const std::string& path) {
  std::ofstream os(path);
  if (!os.good()) {
    throw std::runtime_error("cannot open " + path + " for writing");
  }
  return os;
}

// ---------------------------------------------------------------------------
// Observability export (--trace-out / --metrics)
// ---------------------------------------------------------------------------

/// Shared tracing/metrics flags (solve and batch). Construction arms
/// the tracer (and zeroes the metrics registry, so the export covers
/// this run alone); finish() flushes the trace file and prints the
/// metrics table. Tracing stays disabled — a compiled-in span is one
/// predicted branch — unless --trace-out is given.
struct ObsOptions {
  std::string trace_path;  ///< --trace-out FILE (empty: tracing off)
  bool metrics = false;    ///< --metrics: human summary table

  static ObsOptions take(Args& args) {
    ObsOptions obs;
    obs.trace_path = args.take_value("--trace-out").value_or("");
    obs.metrics = args.take_flag("--metrics");
    if (!obs.trace_path.empty()) {
      obs::Tracer::instance().clear();
      obs::Tracer::instance().enable();
    }
    if (obs.metrics) obs::MetricsRegistry::global().reset();
    return obs;
  }

  void finish() const {
    if (!trace_path.empty()) {
      obs::Tracer& tracer = obs::Tracer::instance();
      tracer.disable();
      std::ofstream os = open_output(trace_path);
      tracer.write_chrome(os);
      std::cerr << "parlap_cli: wrote " << tracer.event_count()
                << " trace event(s) to " << trace_path;
      if (tracer.dropped() > 0) {
        std::cerr << " (" << tracer.dropped()
                  << " dropped: per-thread buffers filled)";
      }
      std::cerr << "\n";
    }
    if (metrics) {
      std::cout << obs::render_metrics_table(
          obs::MetricsRegistry::global().snapshot());
    }
  }
};

// ---------------------------------------------------------------------------
// Build-phase telemetry rendering (--build-stats)
// ---------------------------------------------------------------------------

void print_build_stats(const std::string& method, const BuildStats& bs) {
  TextTable table("build: method " + method + ", " +
                  std::to_string(bs.levels) + " level(s), arena " +
                  JsonWriter::format_number(
                      static_cast<double>(bs.peak_arena_bytes) / (1 << 20)) +
                  " MiB, " + std::to_string(bs.arena_allocations) +
                  " arena realloc(s)");
  table.set_header({"level", "n", "m", "|F|", "scanned", "walked",
                    "degrees_ms", "five_dd_ms", "partition_ms",
                    "walk_graph_ms", "schur_ms", "extract_ms"},
                   4);
  for (std::size_t k = 0; k < bs.level_timings.size(); ++k) {
    const BuildLevelTiming& lt = bs.level_timings[k];
    table.add_row({static_cast<std::int64_t>(k),
                   static_cast<std::int64_t>(lt.n),
                   static_cast<std::int64_t>(lt.edges),
                   static_cast<std::int64_t>(lt.f_size),
                   static_cast<std::int64_t>(lt.edges_scanned),
                   static_cast<std::int64_t>(lt.walked),
                   lt.phases.degrees * 1e3, lt.phases.five_dd * 1e3,
                   lt.phases.partition * 1e3, lt.phases.walk_graph * 1e3,
                   lt.phases.schur * 1e3, lt.phases.extract * 1e3});
  }
  table.add_row({std::string("total"), std::string(""), std::string(""),
                 std::string(""), static_cast<std::int64_t>(bs.edges_scanned),
                 static_cast<std::int64_t>(bs.walked), bs.phases.degrees * 1e3,
                 bs.phases.five_dd * 1e3, bs.phases.partition * 1e3,
                 bs.phases.walk_graph * 1e3, bs.phases.schur * 1e3,
                 bs.phases.extract * 1e3});
  table.print(std::cout);
  std::cout << "build: levels " << bs.phases.total() << " s + base "
            << bs.base_seconds << " s = " << bs.total_seconds
            << " s total\n";
}

void write_build_stats_json(JsonWriter& w, const BuildStats& bs) {
  w.key("build");
  w.begin_object();
  w.member("total_seconds", bs.total_seconds);
  w.member("base_seconds", bs.base_seconds);
  w.member("levels", bs.levels);
  w.member("peak_arena_bytes", bs.peak_arena_bytes);
  w.member("arena_allocations", bs.arena_allocations);
  w.member("edges_scanned", bs.edges_scanned);
  w.member("walked", bs.walked);
  w.key("phases");
  w.begin_object();
  w.member("degrees_seconds", bs.phases.degrees);
  w.member("five_dd_seconds", bs.phases.five_dd);
  w.member("partition_seconds", bs.phases.partition);
  w.member("walk_graph_seconds", bs.phases.walk_graph);
  w.member("schur_seconds", bs.phases.schur);
  w.member("extract_seconds", bs.phases.extract);
  w.end_object();
  w.key("levels_detail");
  w.begin_array();
  for (const BuildLevelTiming& lt : bs.level_timings) {
    w.begin_object();
    w.member("n", lt.n);
    w.member("edges", lt.edges);
    w.member("f_size", lt.f_size);
    w.member("edges_scanned", lt.edges_scanned);
    w.member("walked", lt.walked);
    w.member("degrees_seconds", lt.phases.degrees);
    w.member("five_dd_seconds", lt.phases.five_dd);
    w.member("partition_seconds", lt.phases.partition);
    w.member("walk_graph_seconds", lt.phases.walk_graph);
    w.member("schur_seconds", lt.phases.schur);
    w.member("extract_seconds", lt.phases.extract);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

// ---------------------------------------------------------------------------
// solve
// ---------------------------------------------------------------------------

void list_methods(std::ostream& os) {
  os << "registered solver methods:\n";
  for (const auto& m : SolverRegistry::instance().methods()) {
    os << "  " << m.name << std::string(m.name.size() < 12 ? 12 - m.name.size() : 1, ' ')
       << m.description << '\n';
  }
}

int cmd_solve(Args& args) {
  if (args.take_flag("--list-methods")) {
    list_methods(std::cout);
    return kExitOk;
  }
  const InputOptions in = take_input_options(args);
  const std::string method = args.take_value("--method").value_or("parlap");
  const double eps = args.take_double("--eps", 1e-8);
  const std::string rhs_path = args.take_value("--rhs").value_or("");
  const auto rhs_demand = args.take_value("--rhs-demand");
  const auto rhs_random = args.take_int("--rhs-random", -1);
  if (rhs_random == 0 || rhs_random < -1) {
    throw UsageError("--rhs-random wants a count >= 1, got " +
                     std::to_string(rhs_random));
  }
  const bool project_rhs = args.take_flag("--project-rhs");
  const bool build_stats = args.take_flag("--build-stats");
  const ObsOptions obs = ObsOptions::take(args);
  const std::string out_path = args.take_value("--out").value_or("");
  const std::string json_path = args.take_value("--json").value_or("");
  SolverConfig config;
  config.seed = in.seed;
  config.split_scale = args.take_double("--split-scale", 0.0);
  config.max_iterations =
      static_cast<int>(args.take_int("--max-iterations", 0));
  const std::string precision_arg =
      args.take_value("--precision").value_or("fp64");
  const auto precision_mode = parse_precision(precision_arg);
  if (!precision_mode.has_value()) {
    throw UsageError("--precision wants fp64|fp32|auto, got '" +
                     precision_arg + "'");
  }
  config.precision = *precision_mode;
  args.expect_empty();
  if ((rhs_path.empty() ? 0 : 1) + (rhs_demand ? 1 : 0) +
          (rhs_random > 0 ? 1 : 0) >
      1) {
    throw UsageError(
        "--rhs, --rhs-demand, and --rhs-random are mutually exclusive");
  }

  PARLAP_TRACE_SPAN_N(cli_span, "cli.solve", "cli");
  const Multigraph g = load_input(in);
  const Components comps = connected_components(g);

  // Assemble the right-hand sides (default: unit demand 0 -> n-1).
  std::vector<Vector> bs;
  std::vector<std::string> labels;
  const Vertex n = g.num_vertices();
  if (!rhs_path.empty()) {
    bs.push_back(read_rhs_file(rhs_path, n));
    labels.push_back("file:" + rhs_path);
  } else if (rhs_random > 0) {
    for (std::int64_t k = 0; k < rhs_random; ++k) {
      bs.push_back(random_rhs(n, in.seed + static_cast<std::uint64_t>(k)));
      labels.push_back("random:" + std::to_string(in.seed + k));
    }
  } else {
    std::int64_t s = 0;
    std::int64_t t = n - 1;
    if (rhs_demand) {
      const std::size_t comma = rhs_demand->find(',');
      if (comma == std::string::npos) {
        throw UsageError("--rhs-demand wants S,T (two vertex ids)");
      }
      try {
        std::size_t used_s = 0;
        std::size_t used_t = 0;
        s = std::stoll(rhs_demand->substr(0, comma), &used_s);
        t = std::stoll(rhs_demand->substr(comma + 1), &used_t);
        if (used_s != comma || used_t != rhs_demand->size() - comma - 1) {
          throw std::invalid_argument(*rhs_demand);
        }
      } catch (const std::exception&) {
        throw UsageError("--rhs-demand: '" + *rhs_demand +
                         "' is not a vertex pair S,T");
      }
    }
    // Validate before narrowing to the 32-bit Vertex type; demand_rhs
    // re-checks, but its contract-check message is not user-facing.
    if (s < 0 || s >= n || t < 0 || t >= n) {
      throw std::runtime_error("demand endpoints (" + std::to_string(s) +
                               ", " + std::to_string(t) +
                               ") out of range for " + std::to_string(n) +
                               " vertices");
    }
    if (s == t) {
      throw std::runtime_error(
          n == 1 ? "the graph has a single vertex; there is no demand "
                   "system to solve (give --rhs FILE instead)"
                 : "demand endpoints must differ, got " + std::to_string(s) +
                       "," + std::to_string(t));
    }
    bs.push_back(demand_rhs(n, static_cast<Vertex>(s),
                            static_cast<Vertex>(t)));
    labels.push_back("demand:" + std::to_string(s) + "," + std::to_string(t));
  }

  // The small-fix contract: a right-hand side that is not balanced per
  // component cannot be solved exactly — fail loudly instead of silently
  // returning the least-squares answer, unless the user opted in.
  for (std::size_t k = 0; k < bs.size(); ++k) {
    const RhsCompatibility compat = check_rhs_compatibility(bs[k], comps);
    if (!compat.compatible && !project_rhs) {
      throw std::runtime_error(
          "right-hand side '" + labels[k] + "' is incompatible: component " +
          std::to_string(compat.worst_component) + " of " +
          std::to_string(comps.count) + " has relative net imbalance " +
          std::to_string(compat.worst_imbalance) +
          " (L x = b needs zero sum per component; rerun with "
          "--project-rhs to solve the least-squares projection)");
    }
  }

  std::cerr << "parlap_cli: " << describe_input(in) << ": " << n
            << " vertices, " << g.num_edges() << " edges, " << comps.count
            << " component(s)\n";
  const std::unique_ptr<AnySolver> solver =
      SolverRegistry::instance().create(method, g, config);
  std::cerr << "parlap_cli: method '" << method << "' factored in "
            << solver->setup_seconds() << " s\n";
  // Operator complexity (as in LAMG): stored entries per input edge.
  const double op_complexity =
      static_cast<double>(solver->stored_entries()) /
      static_cast<double>(std::max<EdgeId>(1, g.num_edges()));
  if (build_stats) {
    std::ostringstream line;
    line << "chain: stored_entries " << solver->stored_entries()
         << ", op_complexity " << std::setprecision(4) << op_complexity
         << ", stored_bytes " << solver->stored_bytes() << '\n';
    std::cout << line.str();
    if (const BuildStats* bs = solver->build_stats()) {
      print_build_stats(method, *bs);
    } else {
      std::cerr << "parlap_cli: method '" << method
                << "' does not report build-phase stats\n";
    }
  }

  std::vector<RunReport> reports;
  std::vector<Vector> xs;
  for (const Vector& b : bs) {
    Vector x(b.size(), 0.0);
    reports.push_back(solver->solve(b, x, eps));
    xs.push_back(std::move(x));
  }

  // The storage precision actually used (auto resolved at factor time).
  const Precision precision_used =
      reports.empty() ? *precision_mode : reports.front().precision;
  TextTable table("solve: method " + method + ", eps " +
                  JsonWriter::format_number(eps) + ", precision " +
                  precision_name(precision_used));
  table.set_header({"rhs", "iterations", "solve_s", "residual", "converged"},
                   6);
  bool all_converged = true;
  for (std::size_t k = 0; k < reports.size(); ++k) {
    const RunReport& r = reports[k];
    table.add_row({labels[k], static_cast<std::int64_t>(r.iterations),
                   r.solve_seconds, r.relative_residual,
                   std::string(r.converged ? "yes" : "NO")});
    all_converged = all_converged && r.converged;
  }
  table.print(std::cout);

  if (!out_path.empty()) {
    std::ofstream os = open_output(out_path);
    os.precision(std::numeric_limits<double>::max_digits10);
    for (std::size_t i = 0; i < xs.front().size(); ++i) {
      for (std::size_t k = 0; k < xs.size(); ++k) {
        os << (k > 0 ? " " : "") << xs[k][i];
      }
      os << '\n';
    }
  }

  if (!json_path.empty()) {
    std::string doc;
    JsonWriter w(doc);
    w.begin_object();
    w.member("schema", "parlap-cli-solve-v1");
    write_json_metadata(w);
    w.key("input");
    w.begin_object();
    w.member("source", describe_input(in));
    w.member("vertices", n);
    w.member("edges", g.num_edges());
    w.member("components", comps.count);
    w.end_object();
    w.member("method", method);
    w.member("eps", eps);
    w.member("precision", precision_name(precision_used));
    w.member("setup_seconds", solver->setup_seconds());
    w.member("stored_entries", solver->stored_entries());
    w.member("op_complexity", op_complexity);
    w.member("stored_bytes", solver->stored_bytes());
    if (const BuildStats* bs = solver->build_stats()) {
      write_build_stats_json(w, *bs);
    }
    w.key("runs");
    w.begin_array();
    for (std::size_t k = 0; k < reports.size(); ++k) {
      const RunReport& r = reports[k];
      w.begin_object();
      w.member("rhs", labels[k]);
      w.member("iterations", r.iterations);
      w.member("escalations", r.escalations);
      w.member("solve_seconds", r.solve_seconds);
      w.member("relative_residual", r.relative_residual);
      w.member("converged", r.converged);
      w.member("threads", r.threads);
      w.end_object();
    }
    w.end_array();
    w.member("all_converged", all_converged);
    w.end_object();
    doc += '\n';
    open_output(json_path) << doc;
  }

  cli_span.end();
  obs.finish();
  return all_converged ? kExitOk : kExitNotConverged;
}

// ---------------------------------------------------------------------------
// batch
// ---------------------------------------------------------------------------

int cmd_batch(Args& args) {
  const std::string jobs_path = args.take_value("--jobs").value_or("");
  const auto workers = args.take_int("--workers", 1);
  const auto cache_budget = args.take_int("--cache-budget", 0);
  const auto block_width = args.take_int("--block-width", 1);
  const std::string precision = args.take_value("--precision").value_or("");
  if (!precision.empty() && !parse_precision(precision).has_value()) {
    throw UsageError("--precision wants fp64|fp32|auto, got '" + precision +
                     "'");
  }
  const bool keep_solutions = args.take_flag("--solutions");
  const std::string json_path = args.take_value("--json").value_or("");
  const std::string out_path = args.take_value("--out").value_or("");
  const ObsOptions obs = ObsOptions::take(args);
  args.expect_empty();
  if (jobs_path.empty()) throw UsageError("batch requires --jobs FILE");
  if (workers < 1) throw UsageError("--workers must be >= 1");
  if (cache_budget < 0) throw UsageError("--cache-budget must be >= 0");
  if (block_width < 1) throw UsageError("--block-width must be >= 1");
  if (out_path.empty() != !keep_solutions) {
    throw UsageError("--solutions and --out DIR go together");
  }

  std::ifstream jobs_in(jobs_path);
  if (!jobs_in.good()) {
    throw std::runtime_error("cannot open job file " + jobs_path);
  }
  const std::vector<service::SolveJob> jobs =
      service::parse_jobs_jsonl(jobs_in);
  if (jobs.empty()) {
    throw std::runtime_error("job file " + jobs_path + " contains no jobs");
  }

  service::EngineOptions engine_options;
  engine_options.workers = static_cast<int>(workers);
  engine_options.cache_budget_entries = static_cast<EdgeId>(cache_budget);
  engine_options.keep_solutions = keep_solutions;
  engine_options.block_width = static_cast<int>(block_width);
  engine_options.precision = precision;
  service::SolveEngine engine(engine_options);

  std::cerr << "parlap_cli: batch " << jobs_path << ": " << jobs.size()
            << " job(s), " << workers << " worker(s), block width "
            << block_width << "\n";
  PARLAP_TRACE_SPAN_N(cli_span, "cli.batch", "cli");
  const service::BatchResult batch = engine.run(jobs);
  const service::EngineStats& stats = batch.stats;

  TextTable table("batch: " + jobs_path + ", workers " +
                  std::to_string(workers));
  table.set_header({"job", "method", "cache", "iters", "solve_s", "residual",
                    "status"},
                   5);
  bool all_converged = true;
  for (const service::JobResult& r : batch.jobs) {
    const std::string status =
        !r.ok ? "ERROR" : (r.report.converged ? "ok" : "NO-CONV");
    all_converged = all_converged && r.ok && r.report.converged;
    table.add_row({r.id, r.report.method,
                   std::string(r.cache_hit ? "hit" : "miss"),
                   static_cast<std::int64_t>(r.report.iterations),
                   r.report.solve_seconds, r.report.relative_residual,
                   status});
  }
  table.print(std::cout);
  for (const service::JobResult& r : batch.jobs) {
    if (!r.ok) std::cerr << "parlap_cli: job " << r.id << ": " << r.error << '\n';
  }
  std::cout << "batch: " << stats.succeeded << "/" << stats.jobs
            << " solved in " << stats.wall_seconds << " s ("
            << stats.solves_per_second << " solves/s), cache "
            << stats.cache.hits << " hit(s) / " << stats.cache.misses
            << " miss(es) / " << stats.cache.evictions << " eviction(s), "
            << stats.cache.build_seconds << " s factorizing, "
            << stats.panels << " panel(s) at occupancy "
            << stats.panel_occupancy << "\n";
  std::cout << "batch: solve p50/p95/p99 " << stats.p50_solve_seconds << "/"
            << stats.p95_solve_seconds << "/" << stats.p99_solve_seconds
            << " s, queue wait p50/p95/p99 " << stats.p50_queue_seconds
            << "/" << stats.p95_queue_seconds << "/"
            << stats.p99_queue_seconds << " s, cache hit rate "
            << stats.cache_hit_rate << "\n";

  if (!json_path.empty()) {
    std::string doc;
    JsonWriter w(doc);
    w.begin_object();
    w.member("schema", "parlap-cli-batch-v3");
    write_json_metadata(w);
    w.member("jobs_file", jobs_path);
    w.member("workers", workers);
    w.member("block_width", block_width);
    // The engine-default precision mode; per-job precision (post-auto
    // resolution) rides in each job entry below.
    w.member("precision", precision.empty() ? "fp64" : precision);
    w.key("cache");
    w.begin_object();
    w.member("budget_entries", cache_budget);
    w.member("hits", stats.cache.hits);
    w.member("misses", stats.cache.misses);
    w.member("evictions", stats.cache.evictions);
    w.member("resident_entries", stats.cache.resident_entries);
    w.member("resident_count", stats.cache.resident_count);
    // Miss cost attribution: wall seconds this batch spent factorizing.
    w.member("build_seconds", stats.cache.build_seconds);
    w.member("single_flight_waits", stats.cache.single_flight_waits);
    w.member("single_flight_wait_seconds",
             stats.cache.single_flight_wait_seconds);
    w.end_object();
    w.key("aggregate");
    w.begin_object();
    w.member("jobs", stats.jobs);
    w.member("succeeded", stats.succeeded);
    w.member("converged", stats.converged);
    w.member("failed", stats.failed);
    w.member("wall_seconds", stats.wall_seconds);
    w.member("solves_per_second", stats.solves_per_second);
    w.member("p50_solve_seconds", stats.p50_solve_seconds);
    w.member("p95_solve_seconds", stats.p95_solve_seconds);
    w.member("p99_solve_seconds", stats.p99_solve_seconds);
    w.member("panels", stats.panels);
    w.member("panel_occupancy", stats.panel_occupancy);
    w.end_object();
    // The v3 metrics block: latency digests from the obs histogram
    // registry (log-bucketed percentiles, see docs/OBSERVABILITY.md)
    // plus the batch's cache behavior as rates.
    w.key("metrics");
    w.begin_object();
    w.key("solve_seconds");
    w.begin_object();
    w.member("count", stats.succeeded);
    w.member("p50", stats.p50_solve_seconds);
    w.member("p95", stats.p95_solve_seconds);
    w.member("p99", stats.p99_solve_seconds);
    w.end_object();
    w.key("queue_wait_seconds");
    w.begin_object();
    w.member("count", stats.panels);
    w.member("p50", stats.p50_queue_seconds);
    w.member("p95", stats.p95_queue_seconds);
    w.member("p99", stats.p99_queue_seconds);
    w.end_object();
    w.member("cache_hit_rate", stats.cache_hit_rate);
    w.member("cache_single_flight_waits", stats.cache.single_flight_waits);
    w.member("cache_single_flight_wait_seconds",
             stats.cache.single_flight_wait_seconds);
    w.end_object();
    // One entry per solved panel (width-1 singletons included):
    // occupancy and per-panel apply cost read directly from the list.
    w.key("panels");
    w.begin_array();
    for (const service::PanelStats& p : batch.panels) {
      w.begin_object();
      w.member("width", p.width);
      w.member("cache_hit", p.cache_hit);
      w.member("solve_seconds", p.solve_seconds);
      w.member("apply_seconds", p.apply_seconds);
      w.member("queue_seconds", p.queue_seconds);
      w.member("exec_seconds", p.exec_seconds);
      w.key("jobs");
      w.begin_array();
      for (const std::string& id : p.job_ids) w.value(id);
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.key("jobs");
    w.begin_array();
    for (std::size_t i = 0; i < batch.jobs.size(); ++i) {
      const service::JobResult& r = batch.jobs[i];
      w.begin_object();
      w.member("id", r.id);
      w.member("graph", jobs[i].graph);
      w.member("method", jobs[i].method);
      w.member("rhs", jobs[i].rhs);
      w.member("ok", r.ok);
      if (!r.ok) {
        w.member("error", r.error);
      } else {
        w.member("cache_hit", r.cache_hit);
        w.member("setup_seconds", r.report.setup_seconds);
        // Chain-build seconds of the factorization this job used (paid
        // once by the miss; repeated on hits like setup_seconds).
        w.member("build_seconds",
                 r.report.has_build_stats ? r.report.build.total_seconds
                                          : 0.0);
        w.member("build_arena_allocations",
                 r.report.has_build_stats ? r.report.build.arena_allocations
                                          : 0);
        w.member("solve_seconds", r.report.solve_seconds);
        w.member("apply_seconds", r.report.apply_seconds);
        w.member("panel_width", r.report.panel_width);
        w.member("iterations", r.report.iterations);
        w.member("escalations", r.report.escalations);
        w.member("precision", precision_name(r.report.precision));
        w.member("relative_residual", r.report.relative_residual);
        w.member("converged", r.report.converged);
        w.member("solution_hash", r.solution_hash_hex());
      }
      w.end_object();
    }
    w.end_array();
    w.member("all_converged", all_converged);
    w.end_object();
    doc += '\n';
    open_output(json_path) << doc;
  }

  // Solutions last, after the JSON report is safely on disk: an
  // unwritable --out directory costs the solution files, not the
  // already-computed report. (Job ids are charset-restricted by
  // parse_jobs_jsonl, so the path below cannot escape --out.)
  if (!out_path.empty()) {
    // One file per job: <out>/<job-id>.x, one value per vertex.
    for (const service::JobResult& r : batch.jobs) {
      if (!r.ok) continue;
      std::ofstream os = open_output(out_path + "/" + r.id + ".x");
      os.precision(std::numeric_limits<double>::max_digits10);
      for (const double v : r.solution) os << v << '\n';
    }
  }

  cli_span.end();
  obs.finish();
  return all_converged ? kExitOk : kExitNotConverged;
}

// ---------------------------------------------------------------------------
// info
// ---------------------------------------------------------------------------

int cmd_info(Args& args) {
  const InputOptions in = take_input_options(args);
  const std::string json_path = args.take_value("--json").value_or("");
  args.expect_empty();

  const Multigraph g = load_input(in);
  const Components comps = connected_components(g);
  const CsrGraph csr(g);
  const Vertex n = g.num_vertices();

  EdgeId min_deg = std::numeric_limits<EdgeId>::max();
  EdgeId max_deg = 0;
  Weight min_w = std::numeric_limits<Weight>::infinity();
  Weight max_w = 0.0;
  for (Vertex v = 0; v < n; ++v) {
    min_deg = std::min(min_deg, csr.degree(v));
    max_deg = std::max(max_deg, csr.degree(v));
    min_w = std::min(min_w, csr.weighted_degree(v));
    max_w = std::max(max_w, csr.weighted_degree(v));
  }
  std::vector<Vertex> comp_size(static_cast<std::size_t>(comps.count), 0);
  for (const Vertex c : comps.label) ++comp_size[static_cast<std::size_t>(c)];
  const Vertex largest =
      *std::max_element(comp_size.begin(), comp_size.end());
  const double mean_deg =
      n > 0 ? 2.0 * static_cast<double>(g.num_edges()) / n : 0.0;

  TextTable table("info: " + describe_input(in));
  table.set_header({"stat", "value"}, 6);
  table.add_row({std::string("vertices"), static_cast<std::int64_t>(n)});
  table.add_row(
      {std::string("multi-edges"), static_cast<std::int64_t>(g.num_edges())});
  table.add_row(
      {std::string("components"), static_cast<std::int64_t>(comps.count)});
  table.add_row({std::string("largest_component"),
                 static_cast<std::int64_t>(largest)});
  table.add_row(
      {std::string("min_degree"), static_cast<std::int64_t>(min_deg)});
  table.add_row({std::string("mean_degree"), mean_deg});
  table.add_row(
      {std::string("max_degree"), static_cast<std::int64_t>(max_deg)});
  table.add_row({std::string("min_weighted_degree"), min_w});
  table.add_row({std::string("max_weighted_degree"), max_w});
  table.add_row({std::string("total_weight"), g.total_weight()});
  table.add_row({std::string("simd_detected"),
                 std::string(kernels::simd_level_name(
                     kernels::detected_simd_level()))});
  table.add_row({std::string("simd_active"),
                 std::string(kernels::simd_level_name(
                     kernels::active_simd_level()))});
  table.add_row({std::string("numa_policy"),
                 std::string(kernels::numa_policy_name(
                     kernels::active_numa_policy()))});
  table.add_row({std::string("numa_nodes"),
                 static_cast<std::int64_t>(kernels::numa_node_count())});
  table.print(std::cout);

  if (!json_path.empty()) {
    std::string doc;
    JsonWriter w(doc);
    w.begin_object();
    w.member("schema", "parlap-cli-info-v1");
    write_json_metadata(w);
    w.member("source", describe_input(in));
    w.member("vertices", n);
    w.member("edges", g.num_edges());
    w.member("components", comps.count);
    w.member("largest_component", largest);
    w.member("min_degree", min_deg);
    w.member("mean_degree", mean_deg);
    w.member("max_degree", max_deg);
    w.member("min_weighted_degree", min_w);
    w.member("max_weighted_degree", max_w);
    w.member("total_weight", g.total_weight());
    w.member("simd_detected",
             kernels::simd_level_name(kernels::detected_simd_level()));
    w.member("simd_active",
             kernels::simd_level_name(kernels::active_simd_level()));
    w.member("numa_policy",
             kernels::numa_policy_name(kernels::active_numa_policy()));
    w.member("numa_nodes", kernels::numa_node_count());
    w.end_object();
    doc += '\n';
    open_output(json_path) << doc;
  }
  return kExitOk;
}

// ---------------------------------------------------------------------------
// gen
// ---------------------------------------------------------------------------

int cmd_gen(Args& args) {
  const InputOptions in = take_input_options(args);
  const std::string out_path = args.take_value("--out").value_or("");
  const std::string format = args.take_value("--format").value_or("auto");
  args.expect_empty();
  if (in.gen_spec.empty()) throw UsageError("gen requires --gen SPEC");
  if (!in.input_path.empty()) {
    throw UsageError("gen takes --gen SPEC, not --input");
  }
  if (out_path.empty()) throw UsageError("gen requires --out FILE");

  Multigraph g = make_generated_graph(in.gen_spec, in.seed);
  if (!in.weights.empty()) {
    apply_weights(g, parse_weight_model(in.weights), in.seed + 1);
  }
  bool mtx = false;
  if (format == "mtx") {
    mtx = true;
  } else if (format == "edgelist") {
    mtx = false;
  } else if (format == "auto") {
    mtx = out_path.size() > 4 &&
          out_path.compare(out_path.size() - 4, 4, ".mtx") == 0;
  } else {
    throw UsageError("--format must be mtx, edgelist, or auto");
  }
  if (mtx) {
    write_matrix_market_file(out_path, g);
  } else {
    write_edge_list_file(out_path, g);
  }
  std::cerr << "parlap_cli: wrote " << g.num_vertices() << " vertices, "
            << g.num_edges() << " edges to " << out_path << " ("
            << (mtx ? "matrix market" : "edge list") << ")\n";
  return kExitOk;
}

// ---------------------------------------------------------------------------
// bench
// ---------------------------------------------------------------------------

int cmd_bench(Args& args) {
  const InputOptions in = take_input_options(args);
  const std::string family = args.take_value("--family").value_or("grid2d");
  const std::string sizes_arg = args.take_value("--sizes").value_or("32,64,128");
  const std::string method = args.take_value("--method").value_or("parlap");
  const double eps = args.take_double("--eps", 1e-8);
  const auto reps = static_cast<int>(args.take_int("--reps", 3));
  const std::string json_path = args.take_value("--json").value_or("");
  args.expect_empty();
  if (!in.input_path.empty() || !in.gen_spec.empty()) {
    throw UsageError("bench generates its own graphs; use --family/--sizes");
  }
  if (in.laplacian) {
    throw UsageError("--laplacian only applies to .mtx input (solve/info)");
  }
  if (reps < 1) throw UsageError("--reps must be >= 1");

  const std::vector<std::string> sizes = split_list(sizes_arg);

  TextTable table("bench: family " + family + ", method " + method);
  table.set_header(
      {"size", "n", "m", "setup_s", "solve_s_med", "iters", "residual"}, 5);
  bench::BenchReporter reporter;
  reporter.set_experiment("cli-bench");
  for (const std::string& size : sizes) {
    Multigraph g = make_generated_graph(family + ":" + size, in.seed);
    if (!in.weights.empty()) {
      apply_weights(g, parse_weight_model(in.weights), in.seed + 1);
    }
    const Vector b = random_rhs(g.num_vertices(), in.seed + 7);
    SolverConfig config;
    config.seed = in.seed;
    const std::unique_ptr<AnySolver> solver =
        SolverRegistry::instance().create(method, g, config);
    const double setup_s = solver->setup_seconds();
    Vector x(b.size(), 0.0);
    RunReport last;
    const std::vector<double> samples = bench::measure(
        reps, /*warmup=*/1, [&] { last = solver->solve(b, x, eps); });
    const bench::TimingSummary summary = bench::summarize(samples);
    table.add_row({size, static_cast<std::int64_t>(g.num_vertices()),
                   static_cast<std::int64_t>(g.num_edges()), setup_s,
                   summary.median, static_cast<std::int64_t>(last.iterations),
                   last.relative_residual});
    reporter.record(bench::BenchCase{
        family + ":" + size,
        {{"n", static_cast<double>(g.num_vertices())},
         {"m", static_cast<double>(g.num_edges())},
         {"setup_s", setup_s},
         {"iterations", static_cast<double>(last.iterations)},
         {"relative_residual", last.relative_residual}},
        samples});
  }
  table.print(std::cout);
  if (!json_path.empty()) {
    std::ofstream os = open_output(json_path);
    reporter.write(os);
  }
  return kExitOk;
}

// ---------------------------------------------------------------------------
// usage / dispatch
// ---------------------------------------------------------------------------

void print_usage(std::ostream& os) {
  os << "parlap_cli — parallel Laplacian solver driver (docs/CLI.md)\n"
        "\n"
        "usage: parlap_cli <command> [options]\n"
        "\n"
        "commands:\n"
        "  solve   solve L x = b on a graph from --input or --gen\n"
        "  batch   run a JSONL job file through the concurrent solve engine\n"
        "  info    graph / component / degree statistics\n"
        "  gen     write a generated graph to a file\n"
        "  bench   quick scaling sweep of one method\n"
        "  help    this text\n"
        "\n"
        "global:                [--simd scalar|avx2|avx512|auto]\n"
        "                       [--numa local|interleave]\n"
        "input (solve, info):   --input PATH | --gen SPEC  [--laplacian]\n"
        "                       [--weights unit|uniform:lo,hi|powerlaw:lo,hi,e]\n"
        "                       [--seed S] [--threads N]\n"
        "solve:                 [--method NAME] [--eps E] [--rhs FILE |\n"
        "                       --rhs-demand S,T | --rhs-random K]\n"
        "                       [--project-rhs] [--split-scale X]\n"
        "                       [--max-iterations N] [--precision fp64|fp32|auto]\n"
        "                       [--out FILE] [--json FILE]\n"
        "                       [--build-stats] [--list-methods]\n"
        "                       [--trace-out FILE] [--metrics]\n"
        "batch:                 --jobs FILE.jsonl [--workers N]\n"
        "                       [--block-width K] [--cache-budget ENTRIES]\n"
        "                       [--precision fp64|fp32|auto]\n"
        "                       [--json FILE] [--solutions --out DIR]\n"
        "                       [--trace-out FILE] [--metrics]\n"
        "info:                  [--json FILE]\n"
        "gen:                   --gen SPEC --out FILE [--format mtx|edgelist]\n"
        "bench:                 [--family F] [--sizes a,b,c] [--method NAME]\n"
        "                       [--eps E] [--reps R] [--json FILE]\n"
        "\n"
        "generator specs (--gen / --family):\n"
     << generator_spec_help() << "\n\n";
  list_methods(os);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage(std::cerr);
    return kExitUsage;
  }
  const std::string command = argv[1];
  Args args(argc, argv, 2);
  try {
    // Global hardware knobs, honored by every command (kernel dispatch
    // and NUMA placement are process-wide): --simd scalar|avx2|avx512|
    // auto, --numa local|interleave. Defaults inherit $PARLAP_SIMD /
    // $PARLAP_NUMA. Results are bit-identical at every SIMD level
    // (docs/PERFORMANCE.md); unsupported requests clamp with a note.
    if (const auto simd = args.take_value("--simd")) {
      const auto level = kernels::parse_simd_level(*simd);
      if (!level) {
        throw UsageError("--simd wants scalar|avx2|avx512|auto, got '" +
                         *simd + "'");
      }
      kernels::set_simd_level(*level);
    }
    if (const auto numa = args.take_value("--numa")) {
      const auto policy = kernels::parse_numa_policy(*numa);
      if (!policy) {
        throw UsageError("--numa wants local|interleave, got '" + *numa +
                         "'");
      }
      kernels::set_numa_policy(*policy);
    }
    if (command == "solve") return cmd_solve(args);
    if (command == "batch") return cmd_batch(args);
    if (command == "info") return cmd_info(args);
    if (command == "gen") return cmd_gen(args);
    if (command == "bench") return cmd_bench(args);
    if (command == "help" || command == "--help" || command == "-h") {
      print_usage(std::cout);
      return kExitOk;
    }
    if (command == "--version" || command == "version") {
      std::cout << "parlap_cli (parlap " << PARLAP_VERSION << ")\n";
      return kExitOk;
    }
    std::cerr << "parlap_cli: unknown command '" << command << "'\n\n";
    print_usage(std::cerr);
    return kExitUsage;
  } catch (const UsageError& e) {
    std::cerr << "parlap_cli: " << e.what() << "\n"
              << "run 'parlap_cli help' for usage\n";
    return kExitUsage;
  } catch (const UnknownSolverError& e) {
    std::cerr << "parlap_cli: error: " << e.what() << '\n';
    return kExitInput;
  } catch (const std::exception& e) {
    std::cerr << "parlap_cli: error: " << e.what() << '\n';
    return kExitInput;
  }
}
