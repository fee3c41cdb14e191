#pragma once

#include <cstdint>
#include <vector>

#include "digruber/overlay/overlay.hpp"
#include "digruber/workload/trace.hpp"

namespace digruber::grubsim {

// GRUB-SIM (paper Section 5): a trace-driven simulator that replays the
// brokering-query log from a live run, watches the Response metric
// against a per-decision-point capacity model (fitted by DiPerF), flags
// overload events, and provisions simulated decision points on the fly --
// answering "how many decision points does this load actually need?".

/// How the trace drives the replay.
enum class ReplayMode : std::uint8_t {
  /// Feed the recorded query issue times directly (open-loop). Faithful
  /// when the source run was unsaturated; understates demand otherwise,
  /// because closed-loop clients were throttled by the very saturation
  /// GRUB-SIM is trying to measure.
  kOpenTrace = 0,
  /// Reconstruct the client population from the trace and re-run it as a
  /// closed loop against the capacity model: each client issues, waits the
  /// estimated response, thinks, repeats. This is what "how many decision
  /// points does this load need" actually asks.
  kClosedLoop,
};

struct GrubSimConfig {
  ReplayMode mode = ReplayMode::kOpenTrace;
  /// Closed-loop client think time between queries.
  double think_s = 9.0;

  int initial_dps = 1;
  /// Sustained per-decision-point service capacity (queries/second), from
  /// the DiPerF performance model of the container profile under test.
  double dp_capacity_qps = 2.0;
  /// Response considered adequate; estimates above it are overloads.
  double response_threshold_s = 15.0;
  /// Overload must persist this long before a decision point is added.
  double overload_sustain_s = 120.0;
  /// A newly provisioned decision point takes this long to come up.
  double provision_delay_s = 60.0;

  // Overlay-aware mode: charge dissemination traffic against the capacity
  // model. Each exchange message a decision point sends or receives costs
  // `exchange_cost_queries` query-equivalents of service time; the
  // per-point overhead rate is messages_per_round(n, overlay) / n divided
  // by the exchange interval. Off by default (cost 0) so legacy replays
  // are bit-identical. As deployments grow, mesh overhead scales O(n) per
  // point while tree/super-peer stay O(1) -- so the answer to "how many
  // decision points does this load need" now depends on the overlay.
  overlay::Options overlay{};
  double exchange_interval_s = 180.0;
  double exchange_cost_queries = 0.0;
};

struct GrubSimResult {
  int initial_dps = 0;
  int added_dps = 0;
  [[nodiscard]] int total_dps() const { return initial_dps + added_dps; }

  std::uint64_t overload_events = 0;
  std::vector<double> provision_times_s;
  /// Mean of the replayed response estimates (seconds).
  double avg_response_s = 0.0;
  double max_response_s = 0.0;
  std::uint64_t queries_replayed = 0;
  /// Fraction of per-point capacity spent on dissemination at the final
  /// deployment size (0 unless overlay-aware mode is on).
  double overlay_overhead_fraction = 0.0;
};

GrubSimResult run_grubsim(const workload::TraceLog& trace, GrubSimConfig config);

}  // namespace digruber::grubsim
