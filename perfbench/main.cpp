/// End-to-end benchmark binary. Runs one workload and prints one
/// JSON line (metrics, gates, operation counts, host context) as the last
/// line of stdout; perfbench/run.py builds this binary and turns that line
/// into the benchmark result.
///
///   e2e_bench --workload closure_table5|fit_eco_50k|daemon_mixed
///             --seed N --seconds S --trace 0|1
///             [--workdir DIR] [--smoke] [--inject GATE]
///
/// Exit status: 0 when every correctness gate passed, 1 when one failed,
/// 2 on a usage error.

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "util/simd.hpp"

#ifndef E2E_COMPILER
#define E2E_COMPILER "unknown"
#endif
#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {

namespace {

std::string escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string Report::json() const {
  std::string out = "{\"attempted\": " + std::to_string(attempted_) +
                    ", \"failed\": " + std::to_string(failed_) +
                    ", \"gates\": {";
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    out += (i ? ", \"" : "\"") + escape(gates_[i].first) +
           "\": " + (gates_[i].second ? "true" : "false");
  }
  out += "}, \"context\": {";
  for (std::size_t i = 0; i < context_.size(); ++i) {
    out += (i ? ", \"" : "\"") + escape(context_[i].first) + "\": \"" +
           escape(context_[i].second) + "\"";
  }
  out += "}, \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out += (i ? ", \"" : "\"") + escape(m.name) + "\": {\"value\": " +
           number(m.value) + ", \"unit\": \"" + escape(m.unit) + "\"}";
  }
  out += "}}";
  return out;
}

std::int64_t Trace::open(const std::string& name, std::uint64_t request) {
  if (!enabled_) return -1;
  const double start = now_s();
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::thread::id tid = std::this_thread::get_id();
  auto& stack = stacks_[tid];
  const auto it = thread_ids_.try_emplace(
      tid, static_cast<std::uint32_t>(thread_ids_.size())).first;
  SpanRecord rec;
  rec.name = name;
  rec.start = start;
  rec.parent = stack.empty() ? -1 : stack.back();
  rec.request = request;
  rec.thread = it->second;
  spans_.push_back(std::move(rec));
  const auto id = static_cast<std::int64_t>(spans_.size() - 1);
  stack.push_back(id);
  return id;
}

void Trace::close(std::int64_t id) {
  if (id < 0) return;
  const double end = now_s();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end = end;
  auto& stack = stacks_[std::this_thread::get_id()];
  if (!stack.empty() && stack.back() == id) stack.pop_back();
}

double Trace::self_ms(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) {
      child_time[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) {
      total += spans_[i].end - spans_[i].start - child_time[i];
    }
  }
  return 1000.0 * total;
}

bool Trace::write_chrome(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) return false;
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << "{\"name\": \"" << escape(s.name) << "\", \"ph\": \"X\", \"ts\": "
        << number(1e6 * (s.start - t0)) << ", \"dur\": "
        << number(1e6 * (s.end - s.start)) << ", \"pid\": 1, \"tid\": "
        << s.thread << ", \"args\": {\"id\": " << i << ", \"parent\": "
        << s.parent << ", \"request\": " << s.request << "}}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace e2e

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--workdir DIR] [--smoke] [--inject GATE]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--workdir" && has_value) {
      options.workdir = argv[++i];
    } else if (arg == "--inject" && has_value) {
      options.inject = argv[++i];
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (options.seconds <= 0.0) return usage(argv[0]);

  e2e::Report report;
  report.context("workload", options.workload);
  report.context("seed", std::to_string(options.seed));
  report.context("hardware_concurrency",
                 std::to_string(std::thread::hardware_concurrency()));
  report.context("simd_tier",
                 mgba::simd::tier_name(mgba::simd::active_tier()));
  report.context("compiler", E2E_COMPILER);
  report.context("build_type", E2E_BUILD_TYPE);
  report.context("smoke", options.smoke ? "1" : "0");

  if (options.workload == "closure_table5") {
    e2e::run_closure_table5(options, report);
  } else if (options.workload == "fit_eco_50k") {
    e2e::run_fit_eco_50k(options, report);
  } else if (options.workload == "daemon_mixed") {
    e2e::run_daemon_mixed(options, report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return usage(argv[0]);
  }

  std::printf("%s\n", report.json().c_str());
  std::fflush(stdout);
  return report.gates_ok() && report.failed() == 0 ? 0 : 1;
}
