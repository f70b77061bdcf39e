/// Workload closure_table5: the paper's Table 5. Each of D1..D10, at its
/// flow_utilization clock, is closed once GBA-driven and once mGBA-driven
/// by TimingCloser (fit once per flow), and golden-PBA QoR is measured
/// afterwards, outside the timed region. The engine pool is pinned to one
/// thread: at one thread the flow sums repeat within a few percent, at
/// four they do not.
///
/// The ten designs are the library's fixed benchmark configurations with
/// their own generator seeds, as Table 5's designs are fixed. The run seed
/// picks the order in which designs and the two flows of each design run.
/// Closure time and QoR of a generated design swing by several times from
/// one generator seed to the next, so a seed-varied suite could not give
/// a steady sum (see perfbench/METRICS.md).
///
/// main   = one mGBA-driven closure of the suite (summed TimingCloser::run)
/// second = one GBA-driven closure of the suite
/// Gate: every design's golden QoR is identical across the repeats.

#include <cstring>
#include <memory>
#include <numeric>
#include <random>

#include "../bench/bench_common.hpp"
#include "aocv/aocv_model.hpp"
#include "aocv/derate_table.hpp"
#include "common.hpp"
#include "liberty/default_library.hpp"
#include "netlist/generator.hpp"
#include "opt/optimizer.hpp"
#include "opt/qor.hpp"
#include "sta/timer.hpp"
#include "util/thread_pool.hpp"

namespace e2e {

namespace {

using namespace mgba;

/// The suite: D1..D10 built by the repo's bench helper (generated design,
/// clock at flow_utilization, derated timer).
using Suite = std::vector<std::unique_ptr<bench::BenchStack>>;

/// Generates the suite and sizes each clock (the set-up being timed).
Suite build_suite(bool smoke) {
  Suite suite;
  const int count = smoke ? 3 : 10;
  for (int d = 1; d <= count; ++d) {
    suite.push_back(
        bench::make_stack(d, bench::flow_utilization(d), smoke ? 0.25 : 1.0));
  }
  return suite;
}

/// One closure of one design, with its golden QoR.
struct FlowOutcome {
  double seconds = 0.0;
  OptimizerReport report;
  QorMetrics golden;
  Timer::UpdateStats update;
  Timer::MemoryStats memory;
  std::string hub_stats;
};

FlowOutcome close_design(const bench::BenchStack& stack, bool use_mgba,
                         Trace& trace) {
  Span design_span(trace, use_mgba ? "closure.mgba" : "closure.gba");
  const DerateTable& table = stack.table;
  Design design = stack.generated.design;
  Timer timer(design, stack.constraints);
  timer.set_instance_derates(compute_gba_derates(timer.graph(), table));
  {
    Span span(trace, "sta.full_update");
    timer.update_timing();
  }
  OptimizerOptions options;
  options.max_passes = 25;
  options.use_mgba = use_mgba;
  options.mgba_refresh_passes = 1000;  // fit once per flow
  TimingCloser closer(design, timer, table, options);
  FlowOutcome out;
  {
    Span span(trace, "opt.run");
    const double t0 = now_s();
    out.report = closer.run();
    out.seconds = now_s() - t0;
  }
  {
    Span span(trace, "pba.golden_qor");
    out.golden = measure_golden_qor(timer, table);
  }
  out.update = timer.update_stats();
  out.memory = timer.memory_stats();
  out.hub_stats = closer.path_hub().to_string();
  return out;
}

bool same_qor(const QorMetrics& a, const QorMetrics& b) {
  return std::memcmp(&a.wns_ps, &b.wns_ps, sizeof(double)) == 0 &&
         std::memcmp(&a.tns_ps, &b.tns_ps, sizeof(double)) == 0 &&
         std::memcmp(&a.area_um2, &b.area_um2, sizeof(double)) == 0 &&
         a.violations == b.violations && a.buffer_count == b.buffer_count;
}

}  // namespace

void run_closure_table5(const RunOptions& options, Report& report) {
  set_num_threads(1);
  report.context("pool_threads", "1");

  // Set-up, kSetupRepeats times; the last suite is used.
  std::vector<double> setup_s;
  Suite suite;
  for (int i = 0; i < kSetupRepeats; ++i) {
    suite = Suite{};  // free the previous suite before building the next
    const double t0 = now_s();
    suite = build_suite(options.smoke);
    setup_s.push_back(now_s() - t0);
  }
  const std::size_t n = suite.size();

  std::mt19937_64 rng(derive_seed(options.seed, 1));
  Trace trace(false);
  // Golden QoR of the first repeat, per (design, flow): every later repeat
  // must reproduce it bit for bit.
  std::vector<QorMetrics> expected(2 * n);
  std::vector<double> mgba_sums, gba_sums;
  double mgba_area = 0.0;
  std::size_t mismatches = 0;
  MetricSet layer;
  std::vector<double> traced_mgba_sums, untraced_mgba_sums;

  const double start = now_s();
  for (std::size_t rep = 0;
       rep < 2 || now_s() - start < options.seconds; ++rep) {
    // Traced runs alternate untraced repeats (the reference for the
    // tracing overhead, and the first one sets the expected QoR) with
    // traced ones, so both see the same host drift.
    trace.set_enabled(options.trace && rep % 2 == 1);
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::shuffle(order.begin(), order.end(), rng);
    double mgba_sum = 0.0, gba_sum = 0.0;
    for (const std::size_t d : order) {
      const bool mgba_first = (rng() & 1) != 0;
      for (const bool use_mgba : {mgba_first, !mgba_first}) {
        const FlowOutcome out =
            close_design(*suite[d], use_mgba, trace);
        (use_mgba ? mgba_sum : gba_sum) += out.seconds;
        report.attempt();
        QorMetrics& want = expected[2 * d + (use_mgba ? 1 : 0)];
        if (rep == 0) {
          want = out.golden;
          if (options.inject == "closure_qor") want.tns_ps -= 1.0;
        } else if (!same_qor(want, out.golden)) {
          ++mismatches;
          report.fail();
        }
        if (rep == 0 && use_mgba) mgba_area += out.golden.area_um2;
        if (!trace.enabled()) continue;
        const OptimizerReport& r = out.report;
        if (use_mgba) {
          layer.add("opt.fit_ms", 1000.0 * r.mgba_seconds);
          layer.add("opt.post_route_ms",
                    1000.0 * (out.seconds - r.mgba_seconds));
          layer.add("opt.golden_tns_ps", -out.golden.tns_ps);
          layer.set("opt.golden_wns_ps",
                    std::max(layer.get("opt.golden_wns_ps"),
                             -out.golden.wns_ps));
        } else {
          layer.add("opt.gba_golden_tns_ps", -out.golden.tns_ps);
        }
        layer.add("opt.passes", static_cast<double>(r.passes));
        layer.add("opt.transforms_attempted",
                  static_cast<double>(r.transforms_attempted));
        layer.add("opt.accepted", static_cast<double>(
                                      r.upsizes + r.downsizes +
                                      r.buffers_inserted));
        layer.add("opt.buffers_reverted",
                  static_cast<double>(r.buffers_reverted));
        add_update_counters({}, out.update, layer);
        const Timer::MemoryStats& m = out.memory;
        const double mb = 1.0 / (1024.0 * 1024.0);
        layer.set("sta.arena_mb", std::max(layer.get("sta.arena_mb"),
                                           mb * static_cast<double>(m.arena_bytes)));
        layer.set("sta.live_snapshots",
                  std::max(layer.get("sta.live_snapshots"),
                           static_cast<double>(m.live_snapshots)));
        layer.set("sta.cow_retained_mb",
                  std::max(layer.get("sta.cow_retained_mb"),
                           mb * static_cast<double>(m.cow_retained_bytes)));
        add_path_engine_counters(out.hub_stats, layer);
      }
    }
    (trace.enabled() ? traced_mgba_sums : untraced_mgba_sums)
        .push_back(mgba_sum);
    std::fprintf(stderr, "closure_table5: repeat %zu: mgba %.4f s, gba %.4f s\n",
                 rep, mgba_sum, gba_sum);
    mgba_sums.push_back(mgba_sum);
    gba_sums.push_back(gba_sum);
  }
  report.gate("closure_qor_repeatable", mismatches == 0);
  report.context("repeats", std::to_string(mgba_sums.size()));

  const double gba_med = median(gba_sums);
  const double mgba_med = median(mgba_sums);
  std::fprintf(stderr,
               "closure_table5: %zu designs x %zu repeats, mgba_flow_s %.4f, "
               "gba_flow_s %.4f, flow_speedup %.4f\n",
               n, mgba_sums.size(), mgba_med, gba_med, gba_med / mgba_med);

  if (!options.trace) {
    MetricSet e2e;
    e2e.set("setup_s", median(setup_s));
    e2e.set("peak_rss_mb", peak_rss_mb());
    e2e.set("ok_frac", 1.0 - static_cast<double>(report.failed()) /
                                 static_cast<double>(report.attempted()));
    e2e.set("main_p50_ms", 1000.0 * mgba_med);
    e2e.set("second_p50_ms", 1000.0 * gba_med);
    e2e.set("area_um2", mgba_area);
    e2e.emit(kEndToEnd, report);
    return;
  }

  // Per-layer values are per traced repeat (one closure of the suite by
  // each flow), except maxima and the QoR figures of one repeat.
  const double reps = static_cast<double>(traced_mgba_sums.size());
  for (const char* name :
       {"opt.fit_ms", "opt.post_route_ms", "opt.passes",
        "opt.transforms_attempted", "opt.buffers_reverted",
        "opt.golden_tns_ps", "opt.gba_golden_tns_ps", "sta.full_updates",
        "sta.incremental_updates", "sta.forward_nodes", "sta.backward_nodes",
        "sta.trial_rollbacks", "sta.trial_fallbacks", "pba.cold_builds",
        "pba.warm_syncs", "pba.nodes_recomputed"}) {
    layer.set(name, layer.get(name) / reps);
  }
  const double attempted = layer.get("opt.transforms_attempted");
  layer.set("opt.accept_ratio",
            attempted > 0 ? layer.get("opt.accepted") / reps / attempted : 0);
  set_delay_cache_hit_rate(layer);
  layer.set("sta.full_update_ms", trace.self_ms("sta.full_update") / reps);
  // make_stack does not time its steps, so generation alone is timed here,
  // once per design at full preset size, outside the set-up timings.
  const Library library = make_default_library();
  double generate_s = 0.0;
  for (std::size_t d = 1; d <= n; ++d) {
    const double t0 = now_s();
    const GeneratedDesign generated = generate_design(
        library, benchmark_design_options(static_cast<int>(d)));
    generate_s += now_s() - t0;
  }
  layer.set("netlist.generate_ms", 1000.0 * generate_s);
  layer.set("bench.trace_overhead_pct",
            100.0 * (median(traced_mgba_sums) / median(untraced_mgba_sums) -
                     1.0));
  layer.emit(kPerLayer, report);
  trace.write_chrome(options.workdir + "/trace_closure_table5.json");
}

}  // namespace e2e
