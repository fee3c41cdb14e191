#include "digruber/grubsim/grubsim.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <queue>
#include <set>

namespace digruber::grubsim {

namespace {

/// Floor on a healthy query's response (WAN + service).
constexpr double kMinResponseS = 1.5;

/// Fraction of a decision point's service time spent handling exchange
/// traffic at deployment size `n`. Every message occupies both its sender
/// and its receiver, so the per-point handling rate is
/// 2 * messages_per_round(n) / n per exchange interval. Clamped so even a
/// pathological overlay leaves 1% of capacity for queries.
double overlay_overhead_fraction(const GrubSimConfig& config, std::size_t n) {
  if (config.exchange_cost_queries <= 0.0 || n < 2 ||
      config.exchange_interval_s <= 0.0 || config.dp_capacity_qps <= 0.0) {
    return 0.0;
  }
  const double msgs_per_s = 2.0 * overlay::messages_per_round(n, config.overlay) /
                            double(n) / config.exchange_interval_s;
  const double fraction =
      msgs_per_s * config.exchange_cost_queries / config.dp_capacity_qps;
  return std::min(fraction, 0.99);
}

/// Per-point query capacity net of dissemination overhead. With the
/// default cost of 0 this is exactly dp_capacity_qps, keeping legacy
/// replays bit-identical.
double effective_qps(const GrubSimConfig& config, std::size_t n) {
  return config.dp_capacity_qps * (1.0 - overlay_overhead_fraction(config, n));
}

/// Closed-loop replay: the trace contributes the client population and the
/// experiment duration; the loop itself is re-simulated against the fluid
/// capacity model so throttled demand is reconstructed.
GrubSimResult run_closed_loop(const workload::TraceLog& trace,
                              const GrubSimConfig& config) {
  GrubSimResult result;
  result.initial_dps = config.initial_dps;
  if (trace.entries().empty()) return result;

  std::set<std::uint64_t> clients;
  double duration = 0.0;
  for (const workload::QueryTrace& q : trace.entries()) {
    clients.insert(q.client.value());
    duration = std::max(duration, q.issued.to_seconds());
  }

  struct Dp {
    double backlog = 0.0;
    double ready_at = 0.0;
    double drained_to = 0.0;
  };
  std::vector<Dp> dps(std::size_t(config.initial_dps));

  // Min-heap of client next-issue times.
  std::priority_queue<double, std::vector<double>, std::greater<>> issues;
  const double ramp = duration * 0.5 / double(clients.size());
  for (std::size_t c = 0; c < clients.size(); ++c) {
    issues.push(double(c) * ramp);
  }

  double overload_since = -1.0;
  double response_sum = 0.0;
  while (!issues.empty()) {
    const double t = issues.top();
    issues.pop();
    if (t > duration) continue;

    const double qps = effective_qps(config, dps.size());
    Dp* target = nullptr;
    for (Dp& dp : dps) {
      if (t < dp.ready_at) continue;
      dp.backlog = std::max(
          0.0, dp.backlog - (t - std::max(dp.drained_to, dp.ready_at)) * qps);
      dp.drained_to = t;
      if (!target || dp.backlog < target->backlog) target = &dp;
    }
    if (!target) target = &dps.front();
    target->backlog += 1.0;

    const double response =
        std::max(kMinResponseS, target->backlog / qps);
    response_sum += response;
    result.max_response_s = std::max(result.max_response_s, response);
    ++result.queries_replayed;
    issues.push(t + response + config.think_s);

    if (response > config.response_threshold_s) {
      ++result.overload_events;
      if (overload_since < 0) overload_since = t;
      if (t - overload_since >= config.overload_sustain_s) {
        Dp fresh;
        fresh.ready_at = t + config.provision_delay_s;
        fresh.drained_to = fresh.ready_at;
        dps.push_back(fresh);
        ++result.added_dps;
        result.provision_times_s.push_back(t);
        overload_since = -1.0;
      }
    } else {
      overload_since = -1.0;
    }
  }
  result.avg_response_s =
      result.queries_replayed ? response_sum / double(result.queries_replayed) : 0.0;
  result.overlay_overhead_fraction = overlay_overhead_fraction(config, dps.size());
  return result;
}

}  // namespace

GrubSimResult run_grubsim(const workload::TraceLog& trace, GrubSimConfig config) {
  assert(config.initial_dps >= 1);
  assert(config.dp_capacity_qps > 0);

  if (config.mode == ReplayMode::kClosedLoop) {
    return run_closed_loop(trace, config);
  }

  GrubSimResult result;
  result.initial_dps = config.initial_dps;

  // Fluid model: each decision point is a queue drained at capacity_qps.
  // Arrivals are routed to the shortest backlog (clients re-balanced on
  // reconfiguration, per the Section 5 enhancement).
  struct Dp {
    double backlog = 0.0;   // outstanding requests
    double ready_at = 0.0;  // provisioning delay for late-added DPs
  };
  std::vector<Dp> dps(std::size_t(config.initial_dps));

  // Arrivals must be replayed in time order.
  std::vector<workload::QueryTrace> arrivals = trace.entries();
  std::sort(arrivals.begin(), arrivals.end(),
            [](const workload::QueryTrace& a, const workload::QueryTrace& b) {
              return a.issued < b.issued;
            });

  double last_t = 0.0;
  double overload_since = -1.0;
  double response_sum = 0.0;

  for (const workload::QueryTrace& query : arrivals) {
    const double t = query.issued.to_seconds();
    const double dt = std::max(0.0, t - last_t);
    last_t = t;

    // Drain every ready decision point.
    const double qps = effective_qps(config, dps.size());
    for (Dp& dp : dps) {
      if (t <= dp.ready_at) continue;
      const double active = std::min(dt, t - dp.ready_at);
      dp.backlog = std::max(0.0, dp.backlog - active * qps);
    }

    // Route to the shortest ready queue.
    Dp* target = nullptr;
    for (Dp& dp : dps) {
      if (t < dp.ready_at) continue;
      if (!target || dp.backlog < target->backlog) target = &dp;
    }
    if (!target) target = &dps.front();
    target->backlog += 1.0;

    const double response = target->backlog / qps;
    response_sum += response;
    result.max_response_s = std::max(result.max_response_s, response);
    ++result.queries_replayed;

    if (response > config.response_threshold_s) {
      ++result.overload_events;
      if (overload_since < 0) overload_since = t;
      if (t - overload_since >= config.overload_sustain_s) {
        // Sustained saturation: the third-party observer adds a decision
        // point and the load is re-balanced.
        Dp fresh;
        fresh.ready_at = t + config.provision_delay_s;
        dps.push_back(fresh);
        ++result.added_dps;
        result.provision_times_s.push_back(t);
        overload_since = -1.0;
      }
    } else {
      overload_since = -1.0;
    }
  }

  result.avg_response_s =
      result.queries_replayed ? response_sum / double(result.queries_replayed) : 0.0;
  result.overlay_overhead_fraction = overlay_overhead_fraction(config, dps.size());
  return result;
}

}  // namespace digruber::grubsim
