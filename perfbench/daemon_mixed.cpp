/// Workload daemon_mixed: an in-process TimingServer holding one
/// ~20k-gate session, loaded and fitted at set-up. Three reader
/// connections send read-only query batches open loop, each on its own
/// seeded Poisson schedule, and every batch is timed from when it was due.
/// A share of the batches also carry report_paths, which the session
/// serializes onto its writer thread. One writer connection runs paced
/// closed-loop ECO transactions (begin_eco, size_cell x6, end_eco: the
/// next one starts when the previous has answered and its period is up)
/// and undoes them in groups. The engine pool is at one thread; there are
/// four connections in total.
///
/// The session's clock is a third of the golden critical delay, as in
/// fit_eco_50k, so every endpoint violates at any seed. The set-up fit and
/// the pool of negative-slack instances the ECOs resize then cover the
/// whole design instead of a seed-dependent part of it; at a 1.1 clock the
/// ECO transaction p50 ranged over 4.0-6.0 ms across five seeds.
///
/// The traffic is assumed, not observed: the repository has no record of
/// how clients use the daemon. The reader batch uses the command kinds of
/// the query mix in bench/bench_server_throughput.cpp; every rate, batch
/// size, share and transaction size below was chosen so that a run's
/// figures repeat from seed to seed.
///
/// main   = one reader query batch, from its due time
/// second = one ECO transaction
/// Gates: every batch returns status 0; after the final undo_eco the
/// query transcript matches the pre-run baseline byte for byte.

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <random>
#include <sstream>
#include <thread>

#include "common.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "shell/interpreter.hpp"
#include "shell/session.hpp"
#include "util/thread_pool.hpp"

namespace e2e {

namespace {

using namespace mgba;
using server::Client;
using server::WireResult;

constexpr int kReaders = 3;
/// Batches per second per reader (open loop).
constexpr double kReaderRate = 25.0;
/// Queries per reader batch besides report_wns and report_tns.
constexpr int kSlackQueries = 8;
constexpr int kPathQueries = 8;
/// Share of reader batches that also ask for report_paths.
constexpr double kWriterQueryShare = 0.1;
constexpr std::size_t kSizesPerTxn = 6;
/// Steps (transactions or undos) per second of the paced closed-loop
/// writer.
constexpr double kWriterRate = 50.0;
/// Committed transactions between undo phases.
constexpr std::size_t kUndoEvery = 4;

/// Traced runs switch span recording on and off in windows of this
/// length, so the traced and untraced batches see the same host drift and
/// the same mix of writer steps.
constexpr double kTraceWindow = 0.5;

/// A resizable instance, by name, for the size_cell commands.
struct EcoTarget {
  std::string inst;
  std::string cell;                ///< the cell it starts with
  std::vector<std::string> cells;  ///< footprint family, by name
};

/// Endpoint names and resizable instances, mined from a twin interpreter
/// loaded with the same generator line the server session runs.
struct Plan {
  std::vector<std::string> endpoints;
  std::vector<EcoTarget> resizable;
};

Plan mine_plan(const std::string& load_line, std::mt19937_64& rng) {
  std::ostringstream sink;
  shell::ShellInterpreter interp(sink);
  Plan plan;
  if (!interp.execute_line(load_line).ok()) return plan;
  shell::ShellSession& session = interp.session();
  const Design& design = session.design();
  const Timer& timer = session.timer();
  const TimingGraph& graph = timer.graph();
  for (const NodeId e : graph.endpoints()) {
    plan.endpoints.push_back(graph.node_name(e));
  }
  // Queries draw from every endpoint; the shuffle only picks which ones
  // the baseline batch names.
  std::shuffle(plan.endpoints.begin(), plan.endpoints.end(), rng);
  for (const Resizable& r : resizable_instances(design, timer)) {
    EcoTarget t{design.instance(r.inst).name, design.cell_of(r.inst).name, {}};
    for (const std::size_t j : r.cells) {
      t.cells.push_back(design.library().cell(j).name);
    }
    plan.resizable.push_back(std::move(t));
  }
  return plan;
}

/// Sleeps until shortly before \p t, then spins, so that a send is not
/// late by a thread wake-up.
void wait_until(double t) {
  constexpr double kSpin = 0.0002;
  if (const double now = now_s(); t - now > kSpin) {
    std::this_thread::sleep_for(std::chrono::duration<double>(t - now - kSpin));
  }
  while (now_s() < t) {
  }
}

std::string transcript_of(const std::vector<WireResult>& results) {
  std::string text;
  for (const WireResult& r : results) {
    text += std::to_string(r.status) + "\n" + r.output + r.error;
  }
  return text;
}

/// Runs one batch; true when the transport worked and every command
/// returned \p expected_status (0, success, unless a test feeds the gate a
/// wrong expectation).
bool run_batch(Client& client, const std::vector<std::string>& lines,
               std::string* transcript = nullptr, int expected_status = 0) {
  std::vector<WireResult> results;
  if (!client.run_batch(lines, results).empty()) return false;
  bool ok = results.size() == lines.size();
  for (const WireResult& r : results) ok = ok && r.status == expected_status;
  if (transcript != nullptr) *transcript = transcript_of(results);
  return ok;
}

/// Latency samples of one phase (untraced or traced) of the run.
struct Samples {
  std::vector<double> query_due_ms;     ///< every reader batch, from due
  std::vector<double> read_ms;          ///< read-only batches, from send
  std::vector<double> writer_query_ms;  ///< report_paths batches, from send
  std::vector<double> lag_ms;           ///< send time - due time
  std::vector<double> txn_ms;           ///< ECO transactions
  std::mutex mutex;
};

/// Parses the engine counters of the shell `stats` listing.
void parse_stats(const std::string& text, MetricSet& into) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::size_t a = 0, b = 0, c = 0;
    unsigned long long h = 0, m = 0;
    double x = 0.0, y = 0.0;
    if (std::sscanf(line.c_str(), "updates : %zu full, %zu incremental", &a,
                    &b) == 2) {
      into.set("sta.full_updates", static_cast<double>(a));
      into.set("sta.incremental_updates", static_cast<double>(b));
    } else if (std::sscanf(line.c_str(),
                           "incremental touch : %zu forward node recomputes, "
                           "%zu backward",
                           &a, &b) == 2) {
      into.set("sta.forward_nodes", static_cast<double>(a));
      into.set("sta.backward_nodes", static_cast<double>(b));
    } else if (std::sscanf(line.c_str(), "delay cache : %llu hits, %llu misses",
                           &h, &m) == 2) {
      into.set("sta.cache_hits", static_cast<double>(h));
      into.set("sta.cache_misses", static_cast<double>(m));
    } else if (std::sscanf(line.c_str(),
                           "trial checkpoints : %zu rollbacks, %zu fallbacks",
                           &a, &b) == 2) {
      into.set("sta.trial_rollbacks", static_cast<double>(a));
      into.set("sta.trial_fallbacks", static_cast<double>(b));
    } else if (std::sscanf(line.c_str(), "timing arena : %lf MB", &x) == 1) {
      into.set("sta.arena_mb", x);
    } else if (std::sscanf(line.c_str(),
                           "cow arena : %zu chunks (%zu shared), %zu live "
                           "snapshots, %lf MB retained",
                           &a, &b, &c, &y) == 4) {
      into.set("sta.live_snapshots", static_cast<double>(c));
      into.set("sta.cow_retained_mb", y);
    }
  }
  add_path_engine_counters(text, into);
}

}  // namespace

void run_daemon_mixed(const RunOptions& options, Report& report) {
  set_num_threads(1);
  report.context("pool_threads", "1");
  const std::uint64_t design_seed = derive_seed(options.seed, 4) % 1000000007;
  const std::string load_line =
      std::string("read_netlist -gates ") + (options.smoke ? "2000" : "20000") +
      " -flops " + (options.smoke ? "64" : "640") + " -seed " +
      std::to_string(design_seed) + " -utilization 3";
  std::mt19937_64 plan_rng(derive_seed(options.seed, 5));
  const Plan plan = mine_plan(load_line, plan_rng);
  if (plan.endpoints.size() < 4 || plan.resizable.size() < 8) {
    std::fprintf(stderr, "daemon_mixed: could not mine a query/ECO plan\n");
    report.gate("daemon_plan", false);
    return;
  }
  const std::vector<std::string> baseline_batch = {
      "report_wns",
      "report_tns",
      "get_slack " + plan.endpoints[0],
      "get_slack " + plan.endpoints[1],
      "get_slack " + plan.endpoints[2],
      "report_path " + plan.endpoints[3],
      "report_endpoints 5",
      "report_paths 10"};

  const std::string socket_path = options.workdir + "/daemon_" +
                                  std::to_string(::getpid()) + ".sock";
  server::TimingServer daemon(socket_path, server::ServerOptions{});
  if (const std::string err = daemon.start(); !err.empty()) {
    std::fprintf(stderr, "daemon_mixed: %s\n", err.c_str());
    report.gate("daemon_start", false);
    return;
  }
  std::thread runner([&] { daemon.run(); });
  const auto stop_daemon = [&] {
    daemon.request_stop();
    runner.join();
    ::unlink(socket_path.c_str());
  };

  // The set-up connection becomes the writer connection.
  Client writer;
  if (!writer.connect(socket_path).empty()) {
    report.gate("daemon_connect", false);
    stop_daemon();
    return;
  }
  const std::string attach = "attach " + std::to_string(writer.session_id());

  // Set-up, kSetupRepeats times on the one session (read_netlist replaces
  // the design).
  std::vector<double> setup_s, load_ms, fit_ms;
  bool setup_ok = true;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t0 = now_s();
    setup_ok = run_batch(writer, {load_line}) && setup_ok;
    const double t1 = now_s();
    setup_ok = run_batch(writer, {"fit_mgba"}) && setup_ok;
    const double t2 = now_s();
    setup_s.push_back(t2 - t0);
    load_ms.push_back(1000.0 * (t1 - t0));
    fit_ms.push_back(1000.0 * (t2 - t1));
  }
  std::string baseline;
  setup_ok = run_batch(writer, baseline_batch, &baseline) && setup_ok;
  report.gate("daemon_setup", setup_ok);
  if (options.inject == "daemon_transcript") baseline += "x";

  const int reader_status = options.inject == "daemon_status" ? 1 : 0;
  Trace trace(false);
  std::atomic<std::size_t> attempted{0}, failed{0};
  MetricSet stats_begin, stats_end;
  if (options.trace) {
    std::string text;
    ++attempted;
    if (!run_batch(writer, {"stats"}, &text)) ++failed;
    parse_stats(text, stats_begin);
  }
  // Traced runs alternate untraced windows (the overhead reference) with
  // traced ones; a sample belongs to the phase its span recording was in.
  const double start = now_s();
  const double end = start + options.seconds;
  Samples phase[2];  // [0] untraced, [1] traced

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Client reader;
      if (!reader.connect(socket_path, attach).empty()) {
        ++attempted;
        ++failed;
        return;
      }
      std::mt19937_64 rng(derive_seed(options.seed, 100 + r));
      std::exponential_distribution<double> gap(kReaderRate);
      std::uniform_real_distribution<double> unit(0.0, 1.0);
      double due = start + gap(rng);
      std::uint64_t request = 0;
      while (due < end) {
        std::vector<std::string> lines = {"report_wns", "report_tns"};
        for (int q = 0; q < kSlackQueries; ++q) {
          lines.push_back("get_slack " +
                          plan.endpoints[rng() % plan.endpoints.size()]);
        }
        for (int q = 0; q < kPathQueries; ++q) {
          lines.push_back("report_path " +
                          plan.endpoints[rng() % plan.endpoints.size()]);
        }
        const bool writer_query = unit(rng) < kWriterQueryShare;
        if (writer_query) lines.push_back("report_paths 10");
        wait_until(due);
        const int p = trace.enabled() ? 1 : 0;
        const double sent = now_s();
        bool ok = false;
        {
          Span span(trace, writer_query ? "daemon.writer_query" : "daemon.read",
                    (static_cast<std::uint64_t>(r) << 48) | request++);
          ok = run_batch(reader, lines, nullptr, reader_status);
        }
        const double done = now_s();
        ++attempted;
        if (!ok) ++failed;
        {
          Samples& s = phase[p];
          const std::lock_guard<std::mutex> lock(s.mutex);
          s.query_due_ms.push_back(1000.0 * (done - due));
          (writer_query ? s.writer_query_ms : s.read_ms)
              .push_back(1000.0 * (done - sent));
          s.lag_ms.push_back(1000.0 * (sent - due));
        }
        due += gap(rng);
      }
    });
  }

  // Closed-loop writer on this thread.
  std::mt19937_64 rng(derive_seed(options.seed, 6));
  // Client-side mirror of each instance's cell, so a resize always picks a
  // different cell and undo can restore the mirror.
  std::vector<std::string> current;
  for (const EcoTarget& t : plan.resizable) current.push_back(t.cell);
  std::vector<std::vector<std::pair<std::size_t, std::string>>> undo_log;
  std::size_t committed = 0;
  // Restores the mirror for the most recent \p n logged transactions.
  const auto pop_undo_log = [&](std::size_t n) {
    for (; n > 0 && !undo_log.empty(); --n) {
      const auto& txn = undo_log.back();
      for (auto it = txn.rbegin(); it != txn.rend(); ++it) {
        current[it->first] = it->second;
      }
      undo_log.pop_back();
    }
  };
  // Writer steps alternate between kUndoEvery committed transactions and
  // as many single undo_eco steps, each paced like a transaction.
  bool undoing = false;
  std::uint64_t txn_id = 0;
  double next_step = start;
  while (next_step < end) {
    wait_until(next_step);
    next_step += 1.0 / kWriterRate;
    const double t_start = now_s();
    if (options.trace) {
      trace.set_enabled(static_cast<long>((t_start - start) / kTraceWindow) % 2);
    }
    const int p = trace.enabled() ? 1 : 0;
    if (undoing) {
      Span span(trace, "daemon.undo");
      ++attempted;
      if (!run_batch(writer, {"undo_eco"})) ++failed;
      pop_undo_log(1);
      undoing = !undo_log.empty();
      continue;
    }
    std::vector<std::string> lines = {"begin_eco"};
    std::vector<std::pair<std::size_t, std::string>> record;
    for (std::size_t k = 0; k < kSizesPerTxn; ++k) {
      const std::size_t i = rng() % plan.resizable.size();
      const EcoTarget& res = plan.resizable[i];
      std::string next = res.cells[rng() % res.cells.size()];
      while (next == current[i]) next = res.cells[rng() % res.cells.size()];
      record.emplace_back(i, current[i]);
      current[i] = next;
      lines.push_back("size_cell " + res.inst + " " + next);
    }
    lines.push_back("end_eco");
    bool ok = false;
    {
      Span span(trace, "daemon.eco_txn", txn_id++);
      ok = run_batch(writer, lines);
    }
    const double t_done = now_s();
    ++attempted;
    if (!ok) ++failed;
    {
      const std::lock_guard<std::mutex> lock(phase[p].mutex);
      phase[p].txn_ms.push_back(1000.0 * (t_done - t_start));
    }
    undo_log.push_back(std::move(record));
    ++committed;
    undoing = undo_log.size() == kUndoEvery;
  }
  for (std::thread& t : readers) t.join();
  trace.set_enabled(false);
  if (options.trace) {
    std::string text;
    ++attempted;
    if (!run_batch(writer, {"stats"}, &text)) ++failed;
    parse_stats(text, stats_end);
  }
  if (!undo_log.empty()) {
    ++attempted;
    if (!run_batch(writer, std::vector<std::string>(undo_log.size(),
                                                    "undo_eco"))) {
      ++failed;
    }
    pop_undo_log(undo_log.size());
  }

  std::string after;
  std::string qor;
  const bool after_ok = run_batch(writer, baseline_batch, &after) &&
                        run_batch(writer, {"report_qor"}, &qor);
  report.gate("daemon_transcript_restored", after_ok && after == baseline);
  writer.close();
  stop_daemon();

  report.attempt(attempted.load());
  report.fail(failed.load());
  report.gate("daemon_batches_ok", failed.load() == 0);
  report.context("txns", std::to_string(committed));
  double area = 0.0;
  if (const std::size_t pos = qor.find("area="); pos != std::string::npos) {
    area = std::atof(qor.c_str() + pos + 5);
  }

  const Samples& base = phase[0];
  std::fprintf(stderr,
               "daemon_mixed: %zu batches, %zu txns, query p50 %.4f ms p99 "
               "%.4f ms, eco p50 %.4f ms, lag p99 %.4f ms\n",
               base.query_due_ms.size(), base.txn_ms.size(),
               percentile(base.query_due_ms, 0.5),
               percentile(base.query_due_ms, 0.99),
               percentile(base.txn_ms, 0.5), percentile(base.lag_ms, 0.99));

  if (!options.trace) {
    MetricSet e2e;
    e2e.set("setup_s", median(setup_s));
    e2e.set("peak_rss_mb", peak_rss_mb());
    e2e.set("ok_frac", 1.0 - static_cast<double>(report.failed()) /
                                 static_cast<double>(report.attempted()));
    e2e.set("main_p50_ms", percentile(base.query_due_ms, 0.5));
    e2e.set("second_p50_ms", percentile(base.txn_ms, 0.5));
    e2e.set("area_um2", area);
    e2e.emit(kEndToEnd, report);
    return;
  }

  const Samples& traced = phase[1];
  MetricSet layer;
  layer.set("shell.read_netlist_ms", median(load_ms));
  layer.set("shell.fit_mgba_ms", median(fit_ms));
  layer.set("server.read_batch_ms", percentile(traced.read_ms, 0.5));
  layer.set("server.writer_batch_ms", percentile(traced.writer_query_ms, 0.5));
  layer.set("server.generator_lag_ms", percentile(traced.lag_ms, 0.99));
  layer.set("server.query_p99_ms", percentile(traced.query_due_ms, 0.99));
  layer.set("server.eco_txn_ms", percentile(traced.txn_ms, 0.5));
  // Engine counters of the whole timed loop, per ECO transaction.
  const double txns = static_cast<double>(std::max<std::size_t>(
      1, phase[0].txn_ms.size() + traced.txn_ms.size()));
  for (const char* name :
       {"sta.full_updates", "sta.incremental_updates", "sta.forward_nodes",
        "sta.backward_nodes", "sta.trial_rollbacks", "sta.trial_fallbacks",
        "pba.cold_builds", "pba.warm_syncs", "pba.nodes_recomputed"}) {
    layer.set(name, (stats_end.get(name) - stats_begin.get(name)) / txns);
  }
  for (const char* name : {"sta.cache_hits", "sta.cache_misses"}) {
    layer.set(name, stats_end.get(name) - stats_begin.get(name));
  }
  set_delay_cache_hit_rate(layer);
  layer.set("sta.arena_mb", stats_end.get("sta.arena_mb"));
  layer.set("sta.live_snapshots", stats_end.get("sta.live_snapshots"));
  layer.set("sta.cow_retained_mb", stats_end.get("sta.cow_retained_mb"));
  layer.set("bench.trace_overhead_pct",
            100.0 * (percentile(traced.query_due_ms, 0.5) /
                         percentile(base.query_due_ms, 0.5) -
                     1.0));
  layer.emit(kPerLayer, report);
  trace.write_chrome(options.workdir + "/trace_daemon_mixed.json");
}

}  // namespace e2e
