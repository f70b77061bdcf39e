#pragma once

/// Shared pieces of the end-to-end benchmark: run options, the report that
/// becomes the result line, the in-memory span recorder used by
/// traced runs, and small statistics helpers. Everything here lives on the
/// benchmark side of the engine's public API; nothing is compiled into the
/// engine itself.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sta/timer.hpp"

namespace e2e {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for the daemon socket and the trace dump.
  std::string workdir = ".";
  /// Shrinks every workload to a seconds-scale size (the benchmark's own
  /// test).
  bool smoke = false;
  /// Name of a correctness gate to feed a deliberately wrong expected
  /// answer (the benchmark's own test proves each gate can fail).
  std::string inject;
};

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64: derives independent, reproducible streams from the run
/// seed, so every generator seed, ECO pick and arrival time is a pure
/// function of (--seed, stream).
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Linear-interpolated percentile (p in [0, 1]); 0 for no samples.
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// What one run reports: named metrics with units, correctness gates,
/// operation counts, and host context. Serialized as one JSON line that
/// run.py turns into the printed result.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// A named correctness gate. A failed gate also counts as one failed
  /// (wrong-answer) operation.
  void gate(const std::string& name, bool ok) {
    gates_.emplace_back(name, ok);
    if (!ok) {
      std::fprintf(stderr, "gate failed: %s\n", name.c_str());
      ++failed_;
    }
    ++attempted_;
  }
  void attempt(std::size_t n = 1) { attempted_ += n; }
  void fail(std::size_t n = 1) { failed_ += n; }
  void context(const std::string& key, const std::string& value) {
    context_.emplace_back(key, value);
  }

  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  [[nodiscard]] bool gates_ok() const {
    return std::all_of(gates_.begin(), gates_.end(),
                       [](const auto& g) { return g.second; });
  }

  [[nodiscard]] std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, bool>> gates_;
  std::vector<std::pair<std::string, std::string>> context_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// In-memory span recorder (traced runs only). A span has a name, start,
/// end and the span that caused it; spans of one request share a request
/// id. Recording is mutex-guarded so concurrent daemon clients can share
/// one recorder; when disabled a span costs one branch.
class Trace {
 public:
  struct SpanRecord {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    std::int64_t parent = -1;
    std::uint64_t request = 0;
    std::uint32_t thread = 0;
  };

  explicit Trace(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const { return enabled_.load(); }
  /// May be called while other threads record spans.
  void set_enabled(bool enabled) { enabled_.store(enabled); }

  /// Opens a span on the calling thread; returns its id (-1 when off).
  std::int64_t open(const std::string& name, std::uint64_t request = 0);
  void close(std::int64_t id);

  /// Sum over spans named \p name of (duration - time covered by their
  /// direct children), in milliseconds.
  [[nodiscard]] double self_ms(const std::string& name) const;

  /// Writes the spans as Chrome trace-event JSON (viewable offline).
  bool write_chrome(const std::string& path) const;

 private:
  std::atomic<bool> enabled_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::map<std::thread::id, std::vector<std::int64_t>> stacks_;
  std::map<std::thread::id, std::uint32_t> thread_ids_;
};

/// RAII span.
class Span {
 public:
  Span(Trace& trace, const std::string& name, std::uint64_t request = 0)
      : trace_(trace), id_(trace.open(name, request)) {}
  ~Span() { trace_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Trace& trace_;
  std::int64_t id_;
};

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, measured with tracing off. Every workload reports
/// every one of them; "main" and "second" name each workload's two timed
/// operations (see perfbench/METRICS.md).
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"peak_rss_mb", "MB"},
    {"ok_frac", "frac"},       {"main_p50_ms", "ms"},
    {"second_p50_ms", "ms"},   {"area_um2", "um2"},
};

/// Per-layer metrics, from the traced run. A workload that does not drive
/// a layer reports 0 for that layer's metrics.
inline constexpr MetricDef kPerLayer[] = {
    {"sta.full_update_ms", "ms"},
    {"sta.weight_update_ms", "ms"},
    {"sta.full_updates", "count"},
    {"sta.incremental_updates", "count"},
    {"sta.forward_nodes", "count"},
    {"sta.backward_nodes", "count"},
    {"sta.delay_cache_hit_rate", "frac"},
    {"sta.trial_rollbacks", "count"},
    {"sta.trial_fallbacks", "count"},
    {"sta.arena_mb", "MB"},
    {"sta.live_snapshots", "count"},
    {"sta.cow_retained_mb", "MB"},
    {"pba.sync_ms", "ms"},
    {"pba.backtrack_ms", "ms"},
    {"pba.paths", "count"},
    {"pba.warm_syncs", "count"},
    {"pba.cold_builds", "count"},
    {"pba.nodes_recomputed", "count"},
    {"mgba.problem_build_ms", "ms"},
    {"mgba.rows", "count"},
    {"mgba.cols", "count"},
    {"mgba.select_ms", "ms"},
    {"mgba.fitted_rows", "count"},
    {"mgba.solve_ms", "ms"},
    {"mgba.solve_iters", "count"},
    {"mgba.solve_rounds", "count"},
    {"mgba.solve_us_per_iter", "us"},
    {"mgba.refit_solve_ms", "ms"},
    {"mgba.refit_rows_reevaluated", "count"},
    {"mgba.refit_cone_nodes", "count"},
    {"mgba.warm_refit_frac", "frac"},
    {"mgba.max_optimism_ps", "ps"},
    {"mgba.pass_ratio", "frac"},
    {"opt.fit_ms", "ms"},
    {"opt.post_route_ms", "ms"},
    {"opt.passes", "count"},
    {"opt.transforms_attempted", "count"},
    {"opt.accept_ratio", "frac"},
    {"opt.buffers_reverted", "count"},
    {"opt.golden_wns_ps", "ps"},
    {"opt.golden_tns_ps", "ps"},
    {"opt.gba_golden_tns_ps", "ps"},
    {"netlist.generate_ms", "ms"},
    {"shell.read_netlist_ms", "ms"},
    {"shell.fit_mgba_ms", "ms"},
    {"server.read_batch_ms", "ms"},
    {"server.writer_batch_ms", "ms"},
    {"server.generator_lag_ms", "ms"},
    {"server.query_p99_ms", "ms"},
    {"server.eco_txn_ms", "ms"},
    {"bench.trace_overhead_pct", "%"},
};

/// Named metric values of one run; emit() writes every catalog entry in
/// catalog order (0 for a metric the workload did not set).
class MetricSet {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  void add(const std::string& name, double value) { values_[name] += value; }
  [[nodiscard]] double get(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }
  template <std::size_t N>
  void emit(const MetricDef (&catalog)[N], Report& report) const {
    for (const MetricDef& def : catalog) {
      report.metric(def.name, get(def.name), def.unit);
    }
  }

 private:
  std::map<std::string, double> values_;
};

/// Adds the cold/warm/recomputed-node counters of a PathEngineHub listing
/// ("... cold=.. fallback=.. warm=.. noop=.. nodes=.. ...", one engine per
/// line) to pba.cold_builds, pba.warm_syncs and pba.nodes_recomputed.
inline void add_path_engine_counters(const std::string& text, MetricSet& layer) {
  std::size_t pos = 0;
  while ((pos = text.find("cold=", pos)) != std::string::npos) {
    std::size_t cold = 0, fallback = 0, warm = 0, noop = 0, nodes = 0;
    if (std::sscanf(text.c_str() + pos,
                    "cold=%zu fallback=%zu warm=%zu noop=%zu nodes=%zu", &cold,
                    &fallback, &warm, &noop, &nodes) == 5) {
      layer.add("pba.cold_builds", static_cast<double>(cold + fallback));
      layer.add("pba.warm_syncs", static_cast<double>(warm));
      layer.add("pba.nodes_recomputed", static_cast<double>(nodes));
    }
    pos += 5;
  }
}

/// Adds the Timer::update_stats() counters accumulated between two readings
/// (pass a default-constructed \p before for a fresh timer's totals).
inline void add_update_counters(const mgba::Timer::UpdateStats& before,
                                const mgba::Timer::UpdateStats& after,
                                MetricSet& layer) {
  const auto d = [](auto b, auto a) { return static_cast<double>(b - a); };
  layer.add("sta.full_updates", d(after.full_updates, before.full_updates));
  layer.add("sta.incremental_updates",
            d(after.incremental_updates, before.incremental_updates));
  layer.add("sta.forward_nodes", d(after.forward_nodes, before.forward_nodes));
  layer.add("sta.backward_nodes",
            d(after.backward_nodes, before.backward_nodes));
  layer.add("sta.cache_hits",
            d(after.delay_cache_hits, before.delay_cache_hits));
  layer.add("sta.cache_misses",
            d(after.delay_cache_misses, before.delay_cache_misses));
  layer.add("sta.trial_rollbacks",
            d(after.trial_rollbacks, before.trial_rollbacks));
  layer.add("sta.trial_fallbacks",
            d(after.trial_fallbacks, before.trial_fallbacks));
}

/// sta.delay_cache_hit_rate from the sta.cache_hits / sta.cache_misses
/// totals gathered by add_update_counters.
inline void set_delay_cache_hit_rate(MetricSet& layer) {
  const double hits = layer.get("sta.cache_hits");
  const double lookups = hits + layer.get("sta.cache_misses");
  layer.set("sta.delay_cache_hit_rate", lookups > 0 ? hits / lookups : 0.0);
}

/// A combinational instance with negative GBA slack and its footprint
/// family (library cell indices, at least two). Both ECO workloads draw
/// their resizes from these.
struct Resizable {
  mgba::InstanceId inst;
  std::vector<std::size_t> cells;
};

inline std::vector<Resizable> resizable_instances(const mgba::Design& design,
                                                  const mgba::Timer& timer) {
  using namespace mgba;
  const Library& library = design.library();
  const TimingGraph& graph = timer.graph();
  std::vector<Resizable> out;
  for (std::size_t i = 0; i < design.num_instances(); ++i) {
    const auto inst = static_cast<InstanceId>(i);
    const LibCell& cell = design.cell_of(inst);
    if (cell.kind == CellKind::FlipFlop) continue;
    const NodeId node =
        graph.node_of_pin(inst, static_cast<std::uint32_t>(cell.output_pin()));
    if (node == kInvalidNode || graph.node(node).is_clock_network ||
        !(timer.slack(node, Mode::Late) < 0.0)) {
      continue;
    }
    Resizable r{inst, {}};
    for (std::size_t j = 0; j < library.num_cells(); ++j) {
      const LibCell& c = library.cell(j);
      if (c.footprint == cell.footprint && c.kind != CellKind::FlipFlop) {
        r.cells.push_back(j);
      }
    }
    if (r.cells.size() > 1) out.push_back(std::move(r));
  }
  return out;
}

/// Each workload fills \p report and returns normally; correctness
/// failures are recorded as failed gates, never thrown.
void run_closure_table5(const RunOptions& options, Report& report);
void run_fit_eco_50k(const RunOptions& options, Report& report);
void run_daemon_mixed(const RunOptions& options, Report& report);

}  // namespace e2e
