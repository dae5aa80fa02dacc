#include "bench_util.hpp"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double trace_now() {
  static const Clock::time_point t0 = Clock::now();
  return since(t0);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

Tail tail(const std::vector<double>& v) {
  static const std::pair<double, const char*> kLevels[] = {
      {0.999, "p99.9"}, {0.99, "p99"}, {0.95, "p95"}, {0.9, "p90"},
      {0.75, "p75"}};
  const auto n = static_cast<double>(v.size());
  for (const auto& [q, label] : kLevels) {
    if ((1.0 - q) * n >= 10.0) return {quantile(v, q), label};
  }
  return {v.empty() ? 0.0 : *std::max_element(v.begin(), v.end()), "max"};
}

double host_steal_seconds() {
  std::ifstream is("/proc/stat");
  std::string cpu;
  double field[8] = {};
  if (!(is >> cpu) || cpu != "cpu") return 0.0;
  for (double& f : field) is >> f;  // user nice system idle iowait irq softirq steal
  static const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
  return is ? field[7] / ticks : 0.0;
}

std::vector<std::size_t> quiet_half(const std::vector<double>& steal_rates) {
  std::vector<std::size_t> idx(steal_rates.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return steal_rates[a] < steal_rates[b];
  });
  idx.resize((idx.size() + 1) / 2);
  std::sort(idx.begin(), idx.end());
  return idx;
}

std::vector<double> pick(const std::vector<double>& values,
                         const std::vector<std::size_t>& keep) {
  std::vector<double> out;
  out.reserve(keep.size());
  for (const std::size_t i : keep) out.push_back(values[i]);
  return out;
}

// --- Tracer ------------------------------------------------------------------

int Tracer::open(const std::string& name) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(Span{name, trace_now(), 0.0, parent, -1});
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void Tracer::close(int id) {
  spans_[static_cast<std::size_t>(id)].end = trace_now();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

int Tracer::add(const std::string& name, double start, double end, int parent,
                std::int64_t request) {
  if (!enabled_) return -1;
  if (parent < 0 && !stack_.empty()) parent = stack_.back();
  spans_.push_back(Span{name, start, end, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::add_sequence(
    double start, const std::vector<std::pair<std::string, double>>& durations,
    int parent) {
  if (!enabled_ || parent < 0) return;
  const std::int64_t request = spans_[static_cast<std::size_t>(parent)].request;
  for (const auto& [name, seconds] : durations) {
    add(name, start, start + seconds, parent, request);
    start += seconds;
  }
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    double covered = 0.0;
    double reach = s.start;
    for (auto [a, b] : kids) {
      a = std::max(a, reach);
      b = std::min(b, s.end);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    const std::string layer = s.name.substr(0, s.name.find(':'));
    self[layer] += std::max(0.0, s.end - s.start - covered) * 1e3;
  }
  return self;
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + '"';
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Tracer::write_chrome(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace file " + path);
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string layer = s.name.substr(0, s.name.find(':'));
    os << (i ? ",\n" : "\n") << "{\"name\":" << json_string(s.name)
       << ",\"cat\":" << json_string(layer) << ",\"ph\":\"X\",\"pid\":1"
       << ",\"tid\":" << (s.request >= 0 ? 2 + s.request % 4 : 1)
       << ",\"ts\":" << json_number(s.start * 1e6)
       << ",\"dur\":" << json_number((s.end - s.start) * 1e6)
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent;
    if (s.request >= 0) os << ",\"request_id\":" << s.request;
    os << "}}";
  }
  os << "\n]}\n";
}

// --- AnswerCheck -------------------------------------------------------------

AnswerCheck::AnswerCheck(const parlap::Multigraph& g) : g_(g) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  std::vector<std::int64_t> root(n);
  std::iota(root.begin(), root.end(), std::int64_t{0});
  auto find = [&](std::int64_t v) {
    while (root[static_cast<std::size_t>(v)] != v) {
      auto& r = root[static_cast<std::size_t>(v)];
      r = root[static_cast<std::size_t>(r)];
      v = r;
    }
    return v;
  };
  const auto us = g.us();
  const auto vs = g.vs();
  for (std::size_t e = 0; e < us.size(); ++e) {
    const auto a = find(us[e]);
    const auto b = find(vs[e]);
    if (a != b) root[static_cast<std::size_t>(std::max(a, b))] = std::min(a, b);
  }
  component_.assign(n, -1);
  std::vector<std::int64_t> label(n, -1);
  for (std::size_t v = 0; v < n; ++v) {
    auto& l = label[static_cast<std::size_t>(find(static_cast<std::int64_t>(v)))];
    if (l < 0) l = components_++;
    component_[v] = l;
  }
}

double AnswerCheck::residual(std::span<const double> b,
                             std::span<const double> x) const {
  const std::size_t n = component_.size();
  if (b.size() != n || x.size() != n) return INFINITY;
  std::vector<double> mean(static_cast<std::size_t>(components_), 0.0);
  std::vector<double> size(static_cast<std::size_t>(components_), 0.0);
  for (std::size_t v = 0; v < n; ++v) {
    mean[static_cast<std::size_t>(component_[v])] += b[v];
    size[static_cast<std::size_t>(component_[v])] += 1.0;
  }
  for (std::size_t c = 0; c < mean.size(); ++c) mean[c] /= size[c];

  std::vector<double> r(n);
  double b_norm2 = 0.0;
  for (std::size_t v = 0; v < n; ++v) {
    const double bp = b[v] - mean[static_cast<std::size_t>(component_[v])];
    r[v] = -bp;
    b_norm2 += bp * bp;
  }
  const auto us = g_.us();
  const auto vs = g_.vs();
  const auto ws = g_.ws();
  for (std::size_t e = 0; e < us.size(); ++e) {
    const auto u = static_cast<std::size_t>(us[e]);
    const auto v = static_cast<std::size_t>(vs[e]);
    const double f = ws[e] * (x[u] - x[v]);
    r[u] += f;
    r[v] -= f;
  }
  double r_norm2 = 0.0;
  for (const double ri : r) r_norm2 += ri * ri;
  return b_norm2 > 0.0 ? std::sqrt(r_norm2 / b_norm2) : std::sqrt(r_norm2);
}

// --- Record ------------------------------------------------------------------

void Record::attempt(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 20) failures.push_back(what);
}

void Record::count(const std::string& name, std::int64_t value) {
  const auto [it, inserted] = counts.emplace(name, value);
  if (!inserted && it->second != value) {
    ++failed;
    if (failures.size() < 20) {
      failures.push_back("count " + name + " changed within the run: " +
                         std::to_string(it->second) + " then " +
                         std::to_string(value));
    }
  }
}

std::string Record::to_json() const {
  std::ostringstream os;
  os << "{\"workload\":" << json_string(workload) << ",\"seed\":" << seed
     << ",\"trace\":" << (trace ? 1 : 0) << ",\"attempted\":" << attempted
     << ",\"failed\":" << failed << ",\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    os << (i ? "," : "") << json_string(failures[i]);
  }
  os << "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    os << (first ? "" : ",") << json_string(name) << ":{\"value\":"
       << json_number(m.value) << ",\"unit\":" << json_string(m.unit)
       << ",\"samples\":" << m.samples << ",\"stat\":" << json_string(m.stat)
       << "}";
    first = false;
  }
  os << "},\"counts\":{";
  first = true;
  for (const auto& [name, v] : counts) {
    os << (first ? "" : ",") << json_string(name) << ":" << v;
    first = false;
  }
  os << "},\"host\":{";
  first = true;
  for (const auto& [k, v] : host) {
    os << (first ? "" : ",") << json_string(k) << ":" << json_string(v);
    first = false;
  }
  os << "},\"self_ms\":{";
  first = true;
  for (const auto& [k, v] : self_ms) {
    os << (first ? "" : ",") << json_string(k) << ":" << json_number(v);
    first = false;
  }
  os << "},\"trace_file\":" << json_string(trace_file) << "}";
  return os.str();
}

}  // namespace perfbench
