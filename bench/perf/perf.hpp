// Shared declarations of the digruber-perf benchmark: the workload table,
// the per-run summary kept from a scenario, the layer probes, and the
// traced sim-time ledger.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "digruber/experiments/scenario.hpp"
#include "digruber/trace/trace.hpp"

namespace perf {

namespace dg = digruber;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

// ---------------------------------------------------------------- workloads

struct Workload {
  std::string_view name;
  std::string_view why;
  /// `digruber-run` keys on top of the defaults.
  std::vector<std::pair<std::string, std::string>> keys;
  /// Seeds whose runs the end-to-end simulated metrics pool.
  int seeds = 1;
};

const std::vector<Workload>& workloads();
const Workload* find_workload(std::string_view name);

/// The seed of a workload's `index`-th pooled run: `seed` itself first.
std::uint64_t pooled_seed(std::uint64_t seed, int index);

/// Shortest window that returns: every tester must start before it ends.
inline constexpr dg::sim::Duration kMinWindow = dg::sim::Duration::seconds(2);

/// The workload's scenario for `seed` with a measurement window of `window`.
dg::experiments::ScenarioConfig make_config(const Workload& workload,
                                            std::uint64_t seed,
                                            dg::sim::Duration window);

// ------------------------------------------------------------- run summary

/// What the benchmark keeps from one `run_scenario` call.
struct RunSummary {
  double wall_s = 0.0;
  std::uint64_t digest = 0;  // hash of the deterministic result fields

  // End-to-end (paper) metrics.
  std::uint64_t queries = 0;
  std::uint64_t handled = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t completed = 0;  // queries completed inside the window
  std::int64_t p50_us = 0;  // fallbacks count at the client timeout
  std::int64_t p99_us = 0;
  /// Every query's response in microseconds, sorted; a fallback counts at
  /// the client timeout.
  std::vector<std::int64_t> responses;
  double accuracy = 0.0;
  std::uint64_t entitlement_breaches = 0;
  std::size_t sites_overcommitted = 0;

  // Sizing inputs for the layer probes.
  double window_s = 0.0;
  std::uint64_t sim_events = 0;
  std::int64_t total_cpus = 0;
  double grid_cpu_seconds = 0.0;
  std::uint64_t dp_queries = 0;
  std::uint64_t max_dp_queries = 0;      // busiest decision point
  std::uint64_t max_dp_wal_appends = 0;  // busiest decision point's log
  std::uint64_t selections = 0;
  std::uint64_t records_applied = 0;
  std::uint64_t records_duplicate = 0;
  std::uint64_t exchanges_received = 0;
  std::uint64_t overlay_rounds = 0;
  std::uint64_t exchange_bytes = 0;
  double mean_fanout = 0.0;
  double container_utilization = 0.0;  // mean over decision points
  double container_sojourn_s = 0.0;     // query-weighted mean
  std::uint64_t wal_appends = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t priced_dispatches = 0;
  std::uint64_t degraded_refusals = 0;
  std::uint64_t delta_pulls = 0;
  std::uint64_t failovers = 0;
  std::uint64_t report_retries = 0;
  /// Frames built during the run (process-wide wire telemetry).
  std::uint64_t frames_encoded = 0;
  std::uint64_t frame_bytes = 0;
  std::uint64_t exchange_frames = 0;

  /// Handled queries as (issued, completed) sim-time microseconds, in
  /// issue order: the schedule the GRUBER probe replays.
  std::vector<std::pair<std::int64_t, std::int64_t>> handled_spans;

  [[nodiscard]] bool conserved() const { return queries == handled + fallbacks; }
};

/// Run `config` once, timing the `run_scenario` call on the host clock.
RunSummary timed_run(const dg::experiments::ScenarioConfig& config);

/// Nearest-rank percentile (q in (0, 1]) of `values`; sorts in place.
std::int64_t percentile(std::vector<std::int64_t>& values, double q);

double median(std::vector<double> values);

// ------------------------------------------------------------------ probes

/// How many batches each probe times and the least host time per batch.
struct ProbePlan {
  int batches = 5;
  double min_batch_s = 0.05;
};

/// What the traced run measured about the wire, for sizing the CRC probe.
struct NetCounts {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t delivered_bytes = 0;
  std::uint64_t drops = 0;
};

/// Time each layer's public functions, sized from `run`, and turn the
/// per-call costs into busy-share estimates against `run.wall_s`.
Metrics probe_layers(const dg::experiments::ScenarioConfig& config,
                     const RunSummary& run, const NetCounts& net,
                     const ProbePlan& plan);

// ------------------------------------------------------------------ ledger

/// Sim-time ledger of the traced run, from the spans the program records.
struct Ledger {
  NetCounts net;
  std::uint64_t query_spans = 0;
  std::int64_t p50_us = 0;
  std::int64_t p99_us = 0;
  double serve_share = 0.0;
  double wan_share = 0.0;
  double client_share = 0.0;
};

Ledger build_ledger(const dg::trace::Tracer& tracer, dg::sim::Duration timeout);

}  // namespace perf
